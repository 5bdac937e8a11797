// The fuzz_messages differential check (tools/fuzz/message_differential.h)
// without libFuzzer: the in-place decoders must accept exactly what the
// copying Parse accepts, with the same fields, over the checked-in seed
// corpus, every truncation of each seed, every single-byte corruption,
// and encodings of both data-plane messages built here (the corpus
// holds no FetchBlockResponse seed).

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "net/message.h"
#include "tools/fuzz/message_differential.h"

namespace spangle {
namespace net {
namespace {

/// Every payload prefix, and every single-byte flip of the payload.
void ExpectAgreementUnderDamage(const std::string& payload) {
  for (size_t cut = 0; cut <= payload.size(); ++cut) {
    EXPECT_EQ(DiffInPlaceParsers(payload.data(), cut), "")
        << "truncated at " << cut << " of " << payload.size();
  }
  for (size_t i = 0; i < payload.size(); ++i) {
    std::string bad = payload;
    bad[i] = static_cast<char>(bad[i] ^ 0x5a);
    EXPECT_EQ(DiffInPlaceParsers(bad.data(), bad.size()), "")
        << "byte " << i << " flipped";
  }
}

TEST(MessageDifferential, SeedCorpusAndItsTruncations) {
  size_t seeds = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(SPANGLE_FUZZ_MESSAGES_CORPUS)) {
    std::ifstream in(entry.path(), std::ios::binary);
    const std::string input((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    ASSERT_FALSE(input.empty()) << entry.path();
    SCOPED_TRACE(entry.path().filename().string());
    // As in the fuzzer: the first byte picks a type, the rest is the
    // payload both decoder pairs see.
    ExpectAgreementUnderDamage(input.substr(1));
    ++seeds;
  }
  EXPECT_GE(seeds, 4u);
}

TEST(MessageDifferential, EncodedDataPlaneMessages) {
  PutBlockRequest put;
  put.node = 17;
  put.partition = -3;
  put.bytes = std::string("frame\0bytes", 11);
  put.content_hash = 0xfeedfacecafef00dULL;
  put.trace = {1, 2, 3};
  std::string put_payload;
  put.AppendTo(&put_payload);
  ExpectAgreementUnderDamage(put_payload);

  FetchBlockResponse fetch;
  fetch.found = true;
  fetch.bytes = std::string(300, 'q');
  fetch.content_hash = 42;
  std::string fetch_payload;
  fetch.AppendTo(&fetch_payload);
  ExpectAgreementUnderDamage(fetch_payload);

  FetchBlockResponse missing;
  std::string missing_payload;
  missing.AppendTo(&missing_payload);
  ExpectAgreementUnderDamage(missing_payload);

  // The in-place decoders accept these, and locate the frame where the
  // encoder put it.
  auto put_view = PutBlockRequestView::Parse(put_payload.data(),
                                             put_payload.size());
  ASSERT_TRUE(put_view.ok()) << put_view.status().ToString();
  EXPECT_EQ(put_payload.substr(put_view->bytes.offset, put_view->bytes.size),
            put.bytes);
  auto fetch_view = FetchBlockResponseView::Parse(fetch_payload.data(),
                                                  fetch_payload.size());
  ASSERT_TRUE(fetch_view.ok()) << fetch_view.status().ToString();
  EXPECT_TRUE(fetch_view->found);
  EXPECT_EQ(fetch_payload.substr(fetch_view->bytes.offset,
                                 fetch_view->bytes.size),
            fetch.bytes);
}

TEST(MessageDifferential, SplitEncodingIsTheWholeEncoding) {
  // The gathered sends (head, frame, tail) put exactly AppendTo's bytes
  // on the wire: the wire format does not depend on which send is used.
  PutBlockRequest put;
  put.node = 9;
  put.partition = 4;
  put.bytes = std::string(1000, 'f');
  put.content_hash = 77;
  put.trace = {5, 6, 7};
  std::string whole, head, tail;
  put.AppendTo(&whole);
  put.AppendHead(put.bytes.size(), &head);
  put.AppendTail(&tail);
  EXPECT_EQ(head + put.bytes + tail, whole);

  FetchBlockResponse fetch;
  fetch.found = true;
  fetch.bytes = std::string(513, 'g');
  fetch.content_hash = 88;
  whole.clear();
  head.clear();
  tail.clear();
  fetch.AppendTo(&whole);
  fetch.AppendHead(fetch.bytes.size(), &head);
  fetch.AppendTail(&tail);
  EXPECT_EQ(head + fetch.bytes + tail, whole);
}

}  // namespace
}  // namespace net
}  // namespace spangle

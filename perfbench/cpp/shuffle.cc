// shuffle: DISTRIBUTED with two spangle_executord daemons. Each round
// writes one shuffle (PartitionBy over near-unique u64 keys, so nothing
// combines away) and then runs actions that only read it back over RPC.
// Time goes mostly to engine.shuffle, codec encode/decode, net put/fetch
// and the daemons' block store; bitmask, array and matrix are idle.
// Keeping writes and reads as separate operations separates the put path
// from the fetch/decode path.

#include <memory>
#include <unordered_map>

#include "codec/columnar.h"
#include "common/random.h"
#include "harness.h"

namespace perfbench {
namespace {

using namespace spangle;  // NOLINT(google-build-using-namespace)

using Record = std::pair<uint64_t, double>;

constexpr int kPartitions = 16;
// Daemons keep every shuffle they were sent for the life of the fleet, so
// the workload starts a fresh context (and fleet) every few rounds. Odd,
// so that traced and untraced rounds take turns at each position in a
// context's life.
constexpr int kRoundsPerContext = 3;
// Node id for the transport probe's blocks; far above any engine node.
constexpr uint64_t kProbeNode = uint64_t{1} << 60;

struct Checksum {
  uint64_t records = 0;
  double value_sum = 0;  // values are small integers: sums are exact
  uint64_t key_xor = 0;
};

class ShuffleWorkload : public Workload {
 public:
  std::vector<std::string> OpKinds() const override {
    return {"shuffle_write", "shuffle_read"};
  }

  void Generate(uint64_t seed, double scale) override {
    const auto n = std::max<uint64_t>(20000, static_cast<uint64_t>(4e6 * scale));
    Rng rng(seed);
    input_.resize(n);
    for (Record& r : input_) {
      r.first = rng.Next();
      r.second = static_cast<double>(rng.NextBounded(1000));
    }
  }

  void Setup(Tracer* tracer) override {
    placed_ = PairRdd<uint64_t, double>();
    source_ = PairRdd<uint64_t, double>();
    ctx_.reset();
    {
      Tracer::Scope s(tracer, "Context::Context", "engine");
      DeploymentOptions deploy;
      deploy.mode = DeploymentMode::kDistributed;
      deploy.distributed.num_executors = 2;
      ctx_ = std::make_unique<Context>(4, kPartitions, 0, StorageOptions{},
                                       deploy);
    }
    Tracer::Scope s(tracer, "Context::Parallelize", "engine");
    source_ = PairRdd<uint64_t, double>(ctx_->Parallelize(input_, kPartitions));
    source_.Cache();
    (void)source_.AsRdd().Count();  // fills the cache
  }

  void ComputeReferences(const std::string&) override {
    std::unordered_map<uint64_t, double> by_key;
    by_key.reserve(input_.size());
    for (const Record& r : input_) {
      by_key[r.first] += r.second;
      ref_.value_sum += r.second;
      ref_.key_xor ^= r.first;
    }
    ref_.records = input_.size();
    distinct_keys_ = by_key.size();
  }

  Context* context() override { return ctx_.get(); }

  bool RunOp(int kind, Op* op) override {
    const Counters before = ReadCounters(ctx_->metrics());
    const bool ok = kind == 0 ? Write(op) : Read(op);
    const Counters d = Diff(ReadCounters(ctx_->metrics()), before);
    if (kind == 0) {
      ++writes_;
      written_mb_ += static_cast<double>(d[kShuffleBytes]) / (1 << 20);
      rpc_write_mb_ += static_cast<double>(d[kRpcBytes]) / (1 << 20);
    } else {
      rpc_read_mb_ += static_cast<double>(d[kRpcBytes]) / (1 << 20);
    }
    return ok;
  }

  bool NeedsFreshSetup(int round) override {
    return (round + 1) % kRoundsPerContext == 0;
  }

  Values Traffic() override {
    return {
        {"records", static_cast<double>(input_.size())},
        {"distinct_keys", static_cast<double>(distinct_keys_)},
        {"shuffled_mb_per_write", writes_ ? written_mb_ / writes_ : 0},
        {"read_actions_per_write", 3},
        {"rpc_read_to_write_ratio",
         rpc_write_mb_ > 0 ? rpc_read_mb_ / rpc_write_mb_ : 0},
    };
  }

  Values LayerValues() override {
    // The workload's own shuffle partitions, encoded and decoded directly,
    // then stored on and fetched from the daemons as whole frames.
    if (placed_.AsRdd().node() == nullptr) {  // the last round re-set up
      placed_ = source_.PartitionBy(
          std::make_shared<HashPartitioner<uint64_t>>(kPartitions));
    }
    const std::vector<std::vector<Record>> parts =
        placed_.AsRdd().CollectPartitions();
    std::vector<codec::EncodedFrame> frames;
    double raw_mb = 0, encoded_mb = 0;
    for (const auto& p : parts) {
      frames.push_back(codec::EncodePartitionFrame(p));
      raw_mb += static_cast<double>(frames.back().raw_bytes) / 1e6;
      encoded_mb += static_cast<double>(frames.back().bytes.size()) / 1e6;
    }
    uint64_t sink = 0;
    const double encode_s = TimeRepeated([&] {
      for (const auto& p : parts) {
        sink += codec::EncodePartitionFrame(p).bytes.size();
      }
    });
    const double decode_s = TimeRepeated([&] {
      for (const auto& f : frames) {
        auto r = codec::DecodePartitionFrame<Record>(f.bytes.data(),
                                                     f.bytes.size());
        sink += r.ok() ? r->size() : 0;
      }
    });
    net::RemoteShuffleFetcher* remote = ctx_->remote_shuffle();
    bool transport_ok = true;
    const double put_s = TimeRepeated([&] {
      for (size_t p = 0; p < frames.size(); ++p) {
        transport_ok =
            remote->StoreEncoded(kProbeNode, static_cast<int>(p),
                                 frames[p].bytes, frames[p].content_hash)
                .ok() &&
            transport_ok;
      }
    });
    const double fetch_s = TimeRepeated([&] {
      for (size_t p = 0; p < frames.size(); ++p) {
        auto bytes = remote->FetchEncoded(kProbeNode, static_cast<int>(p));
        transport_ok = bytes.has_value() && transport_ok;
        sink += bytes.has_value() ? bytes->size() : 0;
      }
    });
    KeepAlive(sink);
    if (!transport_ok) std::fprintf(stderr, "[perfbench] transport probe failed\n");
    return {
        {"codec.encode_mb_s", raw_mb / encode_s},
        {"codec.decode_mb_s", raw_mb / decode_s},
        {"net.put_mb_s", transport_ok ? encoded_mb / put_s : 0},
        {"net.fetch_mb_s", transport_ok ? encoded_mb / fetch_s : 0},
    };
  }

 private:
  bool Write(Op* op) {
    placed_ = PairRdd<uint64_t, double>();  // drops the last round's shuffle
    size_t count = 0;
    op->Start();
    {
      auto s = op->Span("PairRdd::PartitionBy+Count", "engine");
      placed_ = source_.PartitionBy(
          std::make_shared<HashPartitioner<uint64_t>>(kPartitions));
      count = placed_.AsRdd().Count();
    }
    op->Stop();
    return Op::Answer(static_cast<double>(count)) ==
           static_cast<double>(ref_.records);
  }

  bool Read(Op* op) {
    size_t count = 0;
    Checksum sum;
    std::pair<uint64_t, double> local{0, 0};  // (distinct keys, value sum)
    op->Start();
    {
      auto s = op->Span("Rdd::Count", "engine");
      count = placed_.AsRdd().Count();
    }
    {
      auto s = op->Span("Rdd::Aggregate", "engine");
      sum = placed_.AsRdd().Aggregate<Checksum>(
          Checksum{},
          [](Checksum acc, const Record& r) {
            ++acc.records;
            acc.value_sum += r.second;
            acc.key_xor ^= r.first;
            return acc;
          },
          [](Checksum a, const Checksum& b) {
            a.records += b.records;
            a.value_sum += b.value_sum;
            a.key_xor ^= b.key_xor;
            return a;
          });
    }
    {
      // reduceByKey over the already key-placed output: a per-partition
      // combine, so the action reads the shuffle without writing another.
      auto s = op->Span("Rdd::MapPartitionsWithIndex+Aggregate", "engine");
      local =
          placed_.AsRdd()
              .MapPartitionsWithIndex<Record>(
                  [](int, const std::vector<Record>& in) {
                    std::unordered_map<uint64_t, double> acc;
                    acc.reserve(in.size());
                    for (const auto& [k, v] : in) acc[k] += v;
                    return std::vector<Record>(acc.begin(), acc.end());
                  },
                  "reduceByKeyLocal")
              .Aggregate<std::pair<uint64_t, double>>(
                  {0, 0},
                  [](std::pair<uint64_t, double> acc, const Record& r) {
                    return std::make_pair(acc.first + 1, acc.second + r.second);
                  },
                  [](std::pair<uint64_t, double> a,
                     const std::pair<uint64_t, double>& b) {
                    return std::make_pair(a.first + b.first,
                                          a.second + b.second);
                  });
    }
    op->Stop();
    return Op::Answer(static_cast<double>(count)) ==
               static_cast<double>(ref_.records) &&
           sum.records == ref_.records && sum.value_sum == ref_.value_sum &&
           sum.key_xor == ref_.key_xor && local.first == distinct_keys_ &&
           local.second == ref_.value_sum;
  }

  std::vector<Record> input_;
  Checksum ref_;
  uint64_t distinct_keys_ = 0;

  std::unique_ptr<Context> ctx_;
  PairRdd<uint64_t, double> source_;
  PairRdd<uint64_t, double> placed_;

  int writes_ = 0;
  double written_mb_ = 0, rpc_write_mb_ = 0, rpc_read_mb_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeShuffleWorkload() {
  return std::make_unique<ShuffleWorkload>();
}

}  // namespace perfbench

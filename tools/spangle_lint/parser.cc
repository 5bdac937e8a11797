#include "spangle_lint/parser.h"

#include <algorithm>
#include <set>
#include <string>
#include <vector>

namespace spangle {
namespace lint {

namespace {

const std::set<std::string>& Keywords() {
  static const std::set<std::string> kw = {
      "if",       "else",     "for",      "while",    "do",
      "switch",   "case",     "default",  "return",   "break",
      "continue", "goto",     "new",      "delete",   "sizeof",
      "alignof",  "alignas",  "static_cast",          "dynamic_cast",
      "const_cast",           "co_await", "co_return","co_yield",
      "true",     "false",    "nullptr",  "auto",     "const",
      "constexpr","consteval","constinit","static",   "inline",
      "void",     "int",      "bool",     "char",     "float",
      "double",   "unsigned", "signed",   "long",     "short",
      "wchar_t",  "char8_t",  "char16_t", "char32_t", "size_t",
      "struct",   "class",    "enum",     "union",    "using",
      "typedef",  "typename", "template", "namespace","operator",
      "noexcept", "try",      "catch",    "throw",    "public",
      "private",  "protected","friend",   "virtual",  "override",
      "final",    "mutable",  "extern",   "register", "volatile",
      "decltype", "requires", "explicit", "this",     "asm",
      "thread_local",         "static_assert",        "concept",
      "export",   "import",   "module",
  };
  return kw;
}

bool IsKeyword(const std::string& s) { return Keywords().count(s) != 0; }

/// Statement-boundary / expression-start tokens: a call or chain whose
/// previous significant token is one of these sits at statement start.
bool IsStmtBoundary(const Token& t) {
  return t.kind == TokKind::kEnd ||
         (t.kind == TokKind::kPunct &&
          (t.text == ";" || t.text == "{" || t.text == "}" || t.text == ":"));
}

bool IsCheckMacroName(const std::string& s) {
  if (s == "assert") return true;
  if (s == "SPANGLE_DCHECK") return false;  // debug-only contract checks
  if (s.rfind("SPANGLE_CHECK", 0) == 0) return true;
  if (s == "CHECK" || s.rfind("CHECK_", 0) == 0) return true;
  return false;
}

/// Splits "a->b.c" into recv "a->b" and field "c".
void SplitChain(const std::string& chain, std::string* recv,
                std::string* field) {
  size_t pos = std::string::npos;
  for (size_t i = chain.size(); i > 0; --i) {
    const char c = chain[i - 1];
    if (c == '.' || c == ':') {
      pos = i - 1;
      break;
    }
    if (c == '>' && i >= 2 && chain[i - 2] == '-') {
      pos = i - 2;
      break;
    }
  }
  if (pos == std::string::npos) {
    recv->clear();
    *field = chain;
    return;
  }
  *field = chain.substr(chain[pos] == '.' ? pos + 1
                        : chain[pos] == ':' ? pos + 1
                                            : pos + 2);
  *recv = chain.substr(0, chain[pos] == ':' && pos > 0 ? pos - 1 : pos);
}

struct ActiveGuard {
  std::string var;   // guard variable name; "" for a direct expr.Lock()
  std::string recv;  // mutex expression receiver ("gate", "node", "")
  std::string field; // mutex expression final component ("mu_")
  bool shared = false;
  int depth = 0;  // brace depth the guard was created at
  int line = 0;
  bool active = true;
};

class Parser {
 public:
  explicit Parser(const LexedFile& file) : f_(file) {}

  FileModel Run() {
    out_.path = f_.path;
    ParseScopeBody(/*in_class=*/false, /*in_function=*/false);
    return out_;
  }

 private:
  // ---- token cursor -------------------------------------------------
  const Token& T(int off = 0) const {
    const size_t i = pos_ + static_cast<size_t>(off);
    return i < f_.tokens.size() ? f_.tokens[i] : f_.tokens.back();
  }
  bool AtEnd() const { return T().kind == TokKind::kEnd; }
  void Next() {
    if (pos_ + 1 < f_.tokens.size()) ++pos_;
  }
  bool IsP(const char* p, int off = 0) const {
    return T(off).kind == TokKind::kPunct && T(off).text == p;
  }
  bool IsI(const char* s, int off = 0) const {
    return T(off).kind == TokKind::kIdent && T(off).text == s;
  }

  /// With the cursor on `open`, advances past the matching closer.
  void SkipBalanced(const char* open, const char* close) {
    int depth = 0;
    while (!AtEnd()) {
      if (IsP(open)) {
        ++depth;
      } else if (IsP(close)) {
        if (--depth == 0) {
          Next();
          return;
        }
      }
      Next();
    }
  }

  /// Skips a template argument list if the cursor sits on '<'. Heuristic:
  /// inside declarations '<' after an identifier is always template
  /// syntax in this codebase.
  void SkipAngles() {
    int depth = 0;
    while (!AtEnd()) {
      if (IsP("<")) {
        ++depth;
      } else if (IsP(">")) {
        if (--depth <= 0) {
          Next();
          return;
        }
      } else if (IsP(";") || IsP("{")) {
        return;  // not a template list after all; bail out
      }
      Next();
    }
  }

  // ---- comment helpers ----------------------------------------------
  bool CommentHas(int line, const char* marker) const {
    auto it = f_.comments.find(line);
    return it != f_.comments.end() &&
           it->second.find(marker) != std::string::npos;
  }

  /// True when `marker` appears in the comment on `line` or anywhere in
  /// the contiguous comment block ending directly above it — waiver
  /// comments routinely wrap onto several lines.
  bool SiteMarker(int line, const char* marker) const {
    if (CommentHas(line, marker)) return true;
    for (int l = line - 1; l >= line - 8; --l) {
      auto it = f_.comments.find(l);
      if (it == f_.comments.end()) break;
      if (it->second.find(marker) != std::string::npos) return true;
    }
    return false;
  }

  /// True when the contiguous comment block ending just above
  /// `decl_line` (or trailing on it) carries `marker` — the placement
  /// for function-level annotations like "spangle-lint: may-block".
  bool DeclMarker(int decl_line, const char* marker) const {
    if (CommentHas(decl_line, marker)) return true;
    for (int l = decl_line - 1; l >= decl_line - 12; --l) {
      auto it = f_.comments.find(l);
      if (it == f_.comments.end()) break;
      if (it->second.find(marker) != std::string::npos) return true;
    }
    return false;
  }

  // ---- scope-level parsing -------------------------------------------
  /// Parses the inside of a namespace/class scope (or the file top
  /// level) until the matching '}' (or EOF). `in_function` is true when
  /// this is a class nested in a function body (local structs).
  void ParseScopeBody(bool in_class, bool in_function) {
    (void)in_function;
    while (!AtEnd()) {
      if (IsP("}")) return;  // caller consumes
      if (IsI("namespace")) {
        ParseNamespace();
        continue;
      }
      if (IsI("template")) {
        Next();
        if (IsP("<")) SkipAngles();
        continue;
      }
      if (IsI("class") || IsI("struct") || IsI("union")) {
        ParseClass();
        continue;
      }
      if (IsI("enum")) {
        ParseEnum();
        continue;
      }
      if (IsI("using") || IsI("typedef") || IsI("friend") ||
          IsI("static_assert")) {
        SkipToSemi();
        continue;
      }
      if (IsI("public") || IsI("private") || IsI("protected")) {
        Next();
        if (IsP(":")) Next();
        continue;
      }
      if (IsP("{")) {  // stray brace (extern "C" etc.) — recurse blind
        Next();
        ParseScopeBody(in_class, false);
        if (IsP("}")) Next();
        continue;
      }
      if (IsP("[") && IsP("[", 1)) {  // [[nodiscard]] and friends
        SkipBalanced("[", "]");
        continue;
      }
      if (IsP(";") || T().kind == TokKind::kString ||
          T().kind == TokKind::kNumber || T().kind == TokKind::kChar) {
        Next();
        continue;
      }
      if (IsP("~") && T(1).kind == TokKind::kIdent) {
        // A destructor: `~Registry() { … }`. The generic punct branch
        // below must not eat the '~', or the declaration parses as the
        // constructor and every check exempts it.
        ParseDeclaration();
        continue;
      }
      if (T().kind == TokKind::kPunct) {
        Next();
        continue;
      }
      ParseDeclaration();
    }
  }

  void ParseNamespace() {
    Next();  // namespace
    std::string name;
    while (T().kind == TokKind::kIdent) {
      name = T().text;
      Next();
      if (IsP("::")) Next();
    }
    if (IsP("{")) {
      Next();
      namespaces_.push_back(name);
      ParseScopeBody(/*in_class=*/false, /*in_function=*/false);
      namespaces_.pop_back();
      if (IsP("}")) Next();
    } else {
      SkipToSemi();  // namespace alias
    }
  }

  void ParseClass() {
    Next();  // class/struct/union
    std::string name;
    // Skip attribute-ish tokens: `CAPABILITY("mutex")`, `[[nodiscard]]`,
    // `alignas(16)`, `SCOPED_CAPABILITY` — the class name is the last
    // plain identifier before '{', ':', '<', or ';'.
    while (!AtEnd()) {
      if (T().kind == TokKind::kIdent) {
        const std::string id = T().text;
        Next();
        if (IsP("(")) {
          SkipBalanced("(", ")");  // macro attribute with args
        } else if (id != "final" && id != "alignas") {
          name = id;
        }
        continue;
      }
      if (IsP("[") && IsP("[", 1)) {
        SkipBalanced("[", "]");
        continue;
      }
      break;
    }
    if (IsP("<")) SkipAngles();  // explicit specialization
    if (IsP(":")) {              // base clause: skip to the open brace
      while (!AtEnd() && !IsP("{") && !IsP(";")) {
        if (IsP("<")) {
          SkipAngles();
          continue;
        }
        Next();
      }
    }
    if (IsP("{")) {
      Next();
      classes_.push_back(name);
      ParseScopeBody(/*in_class=*/true, /*in_function=*/false);
      classes_.pop_back();
      if (IsP("}")) Next();
      SkipToSemi();  // trailing declarator list / ';'
    } else {
      SkipToSemi();  // forward declaration
    }
  }

  void ParseEnum() {
    Next();  // enum
    if (IsI("class") || IsI("struct")) Next();
    std::string name;
    if (T().kind == TokKind::kIdent) {
      name = T().text;
      Next();
    }
    if (IsP(":")) {  // underlying type
      while (!AtEnd() && !IsP("{") && !IsP(";")) Next();
    }
    if (!IsP("{")) {
      SkipToSemi();
      return;
    }
    Next();
    // Record enumerators with explicit integer values; the LockRank
    // hierarchy is harvested here.
    int depth = 1;
    std::string current;
    while (!AtEnd() && depth > 0) {
      if (IsP("{")) ++depth;
      if (IsP("}")) {
        --depth;
        Next();
        continue;
      }
      if (depth == 1 && T().kind == TokKind::kIdent) {
        current = T().text;
        Next();
        if (IsP("=") && T(1).kind == TokKind::kNumber && name == "LockRank") {
          out_.rank_values.emplace_back(current,
                                        std::atoi(T(1).text.c_str()));
        }
        continue;
      }
      Next();
    }
    SkipToSemi();
  }

  void SkipToSemi() {
    while (!AtEnd() && !IsP(";")) {
      if (IsP("{")) {
        SkipBalanced("{", "}");
        continue;
      }
      if (IsP("(")) {
        SkipBalanced("(", ")");
        continue;
      }
      Next();
    }
    if (IsP(";")) Next();
  }

  std::string CurrentClass() const {
    return classes_.empty() ? std::string() : classes_.back();
  }

  /// Parses one member/free declaration: a field (mutex decls and
  /// GUARDED_BY fields are extracted) or a function (declaration or
  /// definition with body).
  void ParseDeclaration() {
    const int decl_line = T().line;
    std::vector<std::string> head;  // identifiers before the declarator
    bool saw_assign = false;
    bool is_dtor = false;

    std::string name;       // last identifier seen — declarator candidate
    std::string qual;       // qualification collected before the name
    int name_line = decl_line;

    while (!AtEnd()) {
      if (IsP(";")) {
        // Plain field / declaration without initializer. GUARDED_BY was
        // handled inline below.
        Next();
        return;
      }
      if (IsP("~")) {
        is_dtor = true;
        Next();
        continue;
      }
      if (T().kind == TokKind::kIdent) {
        const std::string id = T().text;
        if (id == "operator") {
          // operator== / operator() / operator[] …
          Next();
          std::string op = "operator";
          while (T().kind == TokKind::kPunct && !IsP("(")) {
            op += T().text;
            Next();
          }
          if (IsP("(") && IsP(")", 1)) {  // operator()
            op += "()";
            Next();
            Next();
          }
          if (!name.empty()) head.push_back(name);
          name = op;
          name_line = T().line;
          continue;
        }
        if (id == "GUARDED_BY" || id == "PT_GUARDED_BY") {
          Next();
          if (IsP("(")) {
            const std::string expr = CollectParenText();
            std::string recv, field;
            SplitChain(Trim(expr), &recv, &field);
            if (!name.empty()) {
              out_.guarded.push_back(GuardedField{CurrentClass(), name, field,
                                                  f_.path, decl_line});
            }
          }
          continue;
        }
        if (!name.empty()) {
          // The previous candidate (and any qualifier it carried) was
          // return-type text: `std::string Class::Method(` must not let
          // "std" leak into the declarator's qualification.
          head.push_back(name);
          qual.clear();
        }
        name = id;
        name_line = T().line;
        Next();
        if (IsP("<")) SkipAngles();
        continue;
      }
      if (IsP("::")) {
        // Qualified declarator: Class::Method. Fold what we had as the
        // name into the qualifier.
        if (!name.empty()) {
          qual = qual.empty() ? name : qual + "::" + name;
          name.clear();
        }
        Next();
        continue;
      }
      if (IsP("=")) {
        saw_assign = true;
        Next();
        continue;
      }
      if (IsP("{")) {
        // Brace-initialized field: `Mutex mu_{LockRank::kX, "name"};`
        MaybeMutexDecl(head, name, is_dtor, decl_line);
        SkipBalanced("{", "}");
        SkipToSemi();
        return;
      }
      if (IsP("(")) {
        if (saw_assign || name.empty()) {
          // Initializer call in a variable definition — not a function.
          SkipToSemi();
          return;
        }
        ParseFunctionFrom(head, qual, name, is_dtor, decl_line, name_line);
        return;
      }
      if (IsP("[") || IsP("*") || IsP("&") || IsP(",") || IsP("...")) {
        Next();
        continue;
      }
      // Anything else — give up on this declaration.
      SkipToSemi();
      return;
    }
  }

  static std::string Trim(const std::string& s) {
    size_t a = s.find_first_not_of(" \t");
    size_t b = s.find_last_not_of(" \t");
    return a == std::string::npos ? std::string() : s.substr(a, b - a + 1);
  }

  /// With the cursor on '(', returns the joined text of the balanced
  /// group's tokens and advances past the closing ')'.
  std::string CollectParenText() {
    std::string text;
    int depth = 0;
    while (!AtEnd()) {
      if (IsP("(")) {
        ++depth;
        if (depth > 1) text += '(';
        Next();
        continue;
      }
      if (IsP(")")) {
        --depth;
        if (depth == 0) {
          Next();
          return text;
        }
        text += ')';
        Next();
        continue;
      }
      if (!text.empty() && (T().kind == TokKind::kIdent ||
                            T().kind == TokKind::kNumber) &&
          text.back() != ':' && text.back() != '>' && text.back() != '.' &&
          text.back() != '&' && text.back() != '(') {
        text += ' ';
      }
      text += T().text;
      Next();
    }
    return text;
  }

  /// Records `Mutex name{LockRank::kX, …};` declarations (the cursor
  /// sits on '{').
  void MaybeMutexDecl(const std::vector<std::string>& head,
                      const std::string& name, bool is_dtor, int line) {
    if (is_dtor || name.empty() || head.empty()) return;
    const std::string& type = head.back();
    if (type != "Mutex" && type != "SharedMutex") return;
    // Peek: { LockRank :: kIdent …
    if (!(IsP("{") && IsI("LockRank", 1) && IsP("::", 2) &&
          T(3).kind == TokKind::kIdent)) {
      return;
    }
    MutexDecl d;
    d.owner = CurrentClass();
    d.field = name;
    d.rank_name = T(3).text;
    d.shared = (type == "SharedMutex");
    d.file = f_.path;
    d.line = line;
    out_.mutexes.push_back(d);
  }

  /// Cursor on the '(' of a parameter list: parses the rest of a
  /// function declaration/definition.
  void ParseFunctionFrom(const std::vector<std::string>& head,
                         const std::string& qual, const std::string& name,
                         bool is_dtor, int decl_line, int name_line) {
    FunctionRecord fn;
    fn.owner = qual.empty() ? CurrentClass() : LastComponent(qual);
    fn.name = (is_dtor ? "~" : "") + name;
    fn.qual = fn.owner.empty() ? fn.name : fn.owner + "::" + fn.name;
    for (size_t i = 0; i < head.size(); ++i) {
      if (!fn.ret.empty()) fn.ret += ' ';
      fn.ret += head[i];
    }
    fn.fallible = RetIsFallible(head);
    fn.is_dtor = is_dtor;
    fn.is_ctor = !is_dtor && fn.ret.empty() && name == fn.owner;
    fn.file = f_.path;
    fn.line = name_line;
    fn.may_block_annotated = DeclMarker(decl_line, "spangle-lint: may-block");
    fn.untrusted_annotated = DeclMarker(decl_line, "spangle-lint: untrusted");

    SkipBalanced("(", ")");  // parameter list

    // Trailing specifiers: const, noexcept(…), override, final, ACQUIRE/
    // REQUIRES/EXCLUDES(…), -> Ret, = default/delete/0.
    bool deleted_or_defaulted = false;
    while (!AtEnd()) {
      if (T().kind == TokKind::kIdent) {
        const std::string id = T().text;
        Next();
        if (IsP("(")) {
          const std::string args = CollectParenText();
          if (id == "REQUIRES" || id == "REQUIRES_SHARED") {
            SplitArgs(args, &fn.requires_args);
          }
        }
        continue;
      }
      if (IsP("->")) {
        Next();
        while (!AtEnd() && !IsP("{") && !IsP(";") && !IsP("=")) {
          if (IsP("<")) {
            SkipAngles();
            continue;
          }
          Next();
        }
        continue;
      }
      if (IsP("=")) {
        deleted_or_defaulted = true;
        Next();
        continue;
      }
      if (IsP("[") && IsP("[", 1)) {
        SkipBalanced("[", "]");
        continue;
      }
      break;
    }

    if (IsP(":") && !deleted_or_defaulted) {
      // Constructor initializer list: `ident(…)` or `ident{…}` separated
      // by commas, ending at the body brace.
      Next();
      while (!AtEnd()) {
        while (T().kind == TokKind::kIdent || IsP("::") || IsP("<") ||
               IsP(">")) {
          if (IsP("<")) {
            SkipAngles();
            continue;
          }
          Next();
        }
        if (IsP("(")) {
          SkipBalanced("(", ")");
        } else if (IsP("{")) {
          SkipBalanced("{", "}");
        } else {
          break;
        }
        if (IsP(",")) {
          Next();
          continue;
        }
        break;
      }
    }

    if (IsP("{") && !deleted_or_defaulted) {
      fn.has_body = true;
      Next();
      ParseFunctionBody(&fn);
      if (IsP("}")) Next();
    } else {
      SkipToSemi();
    }
    out_.functions.push_back(std::move(fn));
  }

  static std::string LastComponent(const std::string& qual) {
    const size_t pos = qual.rfind("::");
    return pos == std::string::npos ? qual : qual.substr(pos + 2);
  }

  static bool RetIsFallible(const std::vector<std::string>& head) {
    for (const std::string& h : head) {
      if (h == "Status" || h == "Result") return true;
    }
    return false;
  }

  static void SplitArgs(const std::string& args,
                        std::vector<std::string>* out) {
    std::string cur;
    for (char c : args) {
      if (c == ',') {
        if (!Trim(cur).empty()) out->push_back(Trim(cur));
        cur.clear();
      } else {
        cur += c;
      }
    }
    if (!Trim(cur).empty()) out->push_back(Trim(cur));
  }

  // ---- function-body parsing -----------------------------------------

  struct AssertedHeld {
    std::string recv, field;
    int depth;
  };

  void ParseFunctionBody(FunctionRecord* fn) {
    std::vector<ActiveGuard> guards;
    std::vector<AssertedHeld> asserts;
    // Lambda bodies opened while inside a cv-Wait argument list are
    // wait-predicate scopes; events inside them get in_wait_pred.
    struct OpenBrace {
      bool lambda = false;
      bool wait_pred = false;
    };
    std::vector<OpenBrace> braces;  // one entry per open '{' inside body
    int paren_depth = 0;
    std::vector<int> wait_arg_depths;  // paren depths of open Wait() calls
    bool lambda_pending = false;
    bool void_discard_pending = false;
    int void_discard_line = 0;

    const auto depth = [&] { return static_cast<int>(braces.size()) + 1; };
    const auto in_wait_pred = [&] {
      for (const OpenBrace& b : braces) {
        if (b.wait_pred) return true;
      }
      return false;
    };
    const auto in_lambda = [&] {
      for (const OpenBrace& b : braces) {
        if (b.lambda) return true;
      }
      return false;
    };
    const auto snapshot = [&] {
      // Locks held when a lambda is *created* do not protect the code
      // inside it — the body may run later, on another thread (worker
      // loops, thread spawns). Only guards acquired inside the
      // outermost open lambda brace apply to events within it.
      int lambda_floor = 0;
      for (size_t i = 0; i < braces.size(); ++i) {
        if (braces[i].lambda) {
          lambda_floor = static_cast<int>(i) + 2;
          break;
        }
      }
      std::vector<HeldMutex> held;
      if (lambda_floor == 0) {
        for (const std::string& r : fn->requires_args) {
          std::string recv, field;
          SplitChain(Trim(r), &recv, &field);
          HeldMutex h;
          h.recv = recv;
          h.field = field;
          h.via_requires = true;
          held.push_back(h);
        }
      }
      for (const ActiveGuard& g : guards) {
        if (!g.active || g.depth < lambda_floor) continue;
        HeldMutex h;
        h.recv = g.recv;
        h.field = g.field;
        h.shared = g.shared;
        h.acquire_line = g.line;
        held.push_back(h);
      }
      for (const AssertedHeld& a : asserts) {
        if (a.depth < lambda_floor) continue;
        HeldMutex h;
        h.recv = a.recv;
        h.field = a.field;
        h.via_requires = true;
        held.push_back(h);
      }
      return held;
    };
    const auto emit = [&](EventKind kind, int line, std::string name,
                          std::string recv, std::string arg0, bool stmt) {
      Event e;
      e.kind = kind;
      e.line = line;
      e.name = std::move(name);
      e.recv = std::move(recv);
      e.arg0 = std::move(arg0);
      e.stmt = stmt;
      e.in_wait_pred = in_wait_pred();
      e.in_lambda = in_lambda();
      e.lock_order_ok = SiteMarker(line, "lock-order-ok:");
      e.guarded_ok = SiteMarker(line, "guarded-ok:");
      e.held = snapshot();
      fn->events.push_back(std::move(e));
    };

    int prev_sig = -1;  // index into f_.tokens of previous significant tok
    while (!AtEnd()) {
      const Token& t = T();
      if (t.kind == TokKind::kPunct) {
        if (t.text == "{") {
          OpenBrace b;
          b.lambda = lambda_pending;
          b.wait_pred = lambda_pending && !wait_arg_depths.empty();
          lambda_pending = false;
          braces.push_back(b);
          prev_sig = static_cast<int>(pos_);
          Next();
          continue;
        }
        if (t.text == "}") {
          if (braces.empty()) return;  // end of function body
          braces.pop_back();
          const int d = depth();
          for (ActiveGuard& g : guards) {
            if (g.depth > d) g.active = false;
          }
          asserts.erase(std::remove_if(asserts.begin(), asserts.end(),
                                       [&](const AssertedHeld& a) {
                                         return a.depth > d;
                                       }),
                        asserts.end());
          prev_sig = static_cast<int>(pos_);
          Next();
          continue;
        }
        if (t.text == "(") {
          // `(void)` expression discard?
          if (IsI("void", 1) && IsP(")", 2)) {
            void_discard_pending = true;
            void_discard_line = t.line;
            Next();
            Next();
            Next();
            continue;
          }
          ++paren_depth;
          prev_sig = static_cast<int>(pos_);
          Next();
          continue;
        }
        if (t.text == ")") {
          --paren_depth;
          while (!wait_arg_depths.empty() &&
                 paren_depth < wait_arg_depths.back()) {
            wait_arg_depths.pop_back();
          }
          prev_sig = static_cast<int>(pos_);
          Next();
          continue;
        }
        if (t.text == ";") {
          lambda_pending = false;
          void_discard_pending = false;
          prev_sig = static_cast<int>(pos_);
          Next();
          continue;
        }
        if (t.text == "[") {
          // Lambda introducer vs subscript: lambdas start where an
          // expression may start.
          const Token& p = prev_sig >= 0 ? f_.tokens[prev_sig] : f_.tokens[0];
          const bool lambda_intro =
              prev_sig < 0 || p.kind != TokKind::kIdent
                  ? !(p.kind == TokKind::kPunct &&
                      (p.text == ")" || p.text == "]"))
                  : IsKeyword(p.text) && p.text != "this";
          SkipBalanced("[", "]");
          if (lambda_intro) lambda_pending = true;
          prev_sig = -2;  // treat as expression start for what follows
          continue;
        }
        prev_sig = static_cast<int>(pos_);
        Next();
        continue;
      }
      if (t.kind != TokKind::kIdent) {
        prev_sig = static_cast<int>(pos_);
        Next();
        continue;
      }

      // --- identifier handling ---
      const std::string& id = t.text;
      const int line = t.line;

      if (id == "throw") {
        emit(EventKind::kThrow, line, "throw", "", "", false);
        Next();
        prev_sig = static_cast<int>(pos_) - 1;
        continue;
      }
      if (id == "reinterpret_cast") {
        emit(EventKind::kReinterpretCast, line, "reinterpret_cast", "", "",
             false);
        fn->events.back().has_reason = SiteMarker(line, "wire-ok:");
        Next();
        prev_sig = static_cast<int>(pos_) - 1;
        continue;
      }
      if (id == "static_cast" && IsP("<", 1) && IsI("void", 2) &&
          IsP(">", 3)) {
        void_discard_pending = true;
        void_discard_line = line;
        Next();
        Next();
        Next();
        Next();
        continue;
      }
      if (id == "struct" || id == "class") {
        // Local struct/class: parse it with the scope machinery so its
        // mutex members and GUARDED_BY fields are captured.
        ParseClass();
        prev_sig = -1;
        continue;
      }
      if (id == "Mutex" || id == "SharedMutex") {
        // Local ranked mutex: `Mutex mu{LockRank::kScheduler, …};`
        if (T(1).kind == TokKind::kIdent && IsP("{", 2) &&
            IsI("LockRank", 3)) {
          std::vector<std::string> head{id};
          const std::string var = T(1).text;
          Next();  // type
          Next();  // name — cursor now on '{'
          MaybeMutexDecl(head, var, false, line);
          SkipBalanced("{", "}");
          prev_sig = -1;
          continue;
        }
      }
      if (id == "MutexLock" || id == "ReaderMutexLock" ||
          id == "WriterMutexLock") {
        if (T(1).kind == TokKind::kIdent &&
            (IsP("(", 2) || IsP("{", 2))) {
          ActiveGuard g;
          g.var = T(1).text;
          g.shared = (id == "ReaderMutexLock");
          g.depth = depth();
          g.line = line;
          Next();  // type
          Next();  // var — cursor on ( or {
          const bool paren = IsP("(");
          std::string expr = paren ? CollectParenText() : std::string();
          if (!paren) {
            Next();  // '{'
            int bd = 1;
            while (!AtEnd() && bd > 0) {
              if (IsP("{")) ++bd;
              if (IsP("}")) --bd;
              if (bd > 0) expr += T().text;
              Next();
            }
          }
          // First constructor argument, minus the address-of.
          std::string arg0 = expr;
          const size_t comma = FindTopComma(expr);
          if (comma != std::string::npos) arg0 = expr.substr(0, comma);
          arg0 = Trim(arg0);
          while (!arg0.empty() && (arg0[0] == '&' || arg0[0] == ' ')) {
            arg0 = arg0.substr(1);
          }
          SplitChain(arg0, &g.recv, &g.field);
          Event e;
          e.kind = EventKind::kAcquire;
          e.line = line;
          e.name = arg0;
          e.recv = g.recv;
          e.shared_acquire = g.shared;
          e.in_wait_pred = in_wait_pred();
      e.in_lambda = in_lambda();
          e.lock_order_ok = SiteMarker(line, "lock-order-ok:");
          e.held = snapshot();
          fn->events.push_back(std::move(e));
          guards.push_back(g);
          prev_sig = -1;
          continue;
        }
      }

      if (IsKeyword(id) && id != "this") {
        prev_sig = static_cast<int>(pos_);
        Next();
        continue;
      }

      // Build a postfix chain: a::b.c->d … When the chain continues a
      // member expression whose receiver we could not track (`x[i].f`,
      // `f().g`), the receiver is unknown — events get a "?" receiver so
      // the checks stay quiet about it.
      const int chain_prev = prev_sig;
      const bool unknown_recv =
          chain_prev >= 0 && f_.tokens[chain_prev].kind == TokKind::kPunct &&
          (f_.tokens[chain_prev].text == "." ||
           f_.tokens[chain_prev].text == "->");
      std::string chain = (id == "this") ? "" : id;
      Next();
      if (id == "this") {
        if (!IsP("->")) {
          prev_sig = static_cast<int>(pos_) - 1;
          continue;
        }
        Next();  // `this->x` behaves like bare `x`
        if (T().kind != TokKind::kIdent) continue;
        chain = T().text;
        Next();
      }
      while (true) {
        if (IsP("::") && T(1).kind == TokKind::kIdent) {
          chain += "::" + T(1).text;
          Next();
          Next();
          continue;
        }
        if ((IsP(".") || IsP("->")) && T(1).kind == TokKind::kIdent) {
          chain += (IsP(".") ? "." : "->") + T(1).text;
          Next();
          Next();
          continue;
        }
        break;
      }
      std::string recv, last;
      SplitChain(chain, &recv, &last);
      if (unknown_recv) recv = recv.empty() ? "?" : "?." + recv;

      if (IsP("(")) {
        // A call. Guard-variable Lock/Unlock toggles first. Reverse
        // order: the most recent guard with this name shadows earlier
        // same-named guards from sibling scopes.
        bool handled = false;
        for (auto it = guards.rbegin(); it != guards.rend(); ++it) {
          ActiveGuard& g = *it;
          if (recv == g.var && !g.var.empty()) {
            if (last == "Unlock") {
              g.active = false;
              handled = true;
            } else if (last == "Lock") {
              Event e;
              e.kind = EventKind::kAcquire;
              e.line = line;
              e.name = g.recv.empty() ? g.field : g.recv + "->" + g.field;
              e.recv = g.recv;
              e.lock_order_ok = SiteMarker(line, "lock-order-ok:");
              e.held = snapshot();
              fn->events.push_back(std::move(e));
              g.active = true;
              handled = true;
            }
            if (handled) break;
          }
        }
        if (handled) {
          SkipBalanced("(", ")");
          prev_sig = -1;
          continue;
        }
        if (last == "AssertHeld" && !recv.empty()) {
          std::string mrecv, mfield;
          SplitChain(recv, &mrecv, &mfield);
          asserts.push_back(AssertedHeld{mrecv, mfield, depth()});
          SkipBalanced("(", ")");
          prev_sig = -1;
          continue;
        }
        if ((last == "Lock" || last == "ReaderLock") && !recv.empty()) {
          // Direct mutex lock without RAII: held until Unlock or return.
          std::string mrecv, mfield;
          SplitChain(recv, &mrecv, &mfield);
          Event e;
          e.kind = EventKind::kAcquire;
          e.line = line;
          e.name = recv;
          e.recv = mrecv;
          e.shared_acquire = (last == "ReaderLock");
          e.lock_order_ok = SiteMarker(line, "lock-order-ok:");
          e.held = snapshot();
          fn->events.push_back(std::move(e));
          ActiveGuard g;
          g.recv = mrecv;
          g.field = mfield;
          g.shared = (last == "ReaderLock");
          g.depth = 1;
          g.line = line;
          guards.push_back(g);
          SkipBalanced("(", ")");
          prev_sig = -1;
          continue;
        }
        if ((last == "Unlock" || last == "ReaderUnlock") && !recv.empty()) {
          std::string mrecv, mfield;
          SplitChain(recv, &mrecv, &mfield);
          for (ActiveGuard& g : guards) {
            if (g.var.empty() && g.recv == mrecv && g.field == mfield) {
              g.active = false;
            }
          }
          SkipBalanced("(", ")");
          prev_sig = -1;
          continue;
        }
        if (IsCheckMacroName(last)) {
          emit(EventKind::kCheckMacro, line, last, "", "", false);
          SkipBalanced("(", ")");
          prev_sig = -1;
          continue;
        }

        // Statement position requires both a boundary before the chain
        // and a ';' right after the call's closing paren.
        bool stmt = false;
        if (chain_prev == -1 ||
            (chain_prev >= 0 && IsStmtBoundary(f_.tokens[chain_prev]))) {
          stmt = CallEndsStatement();
        }
        // First-argument text (cv-wait mutex resolution).
        const std::string args = PeekParenText();
        std::string arg0 = args;
        const size_t comma = FindTopComma(args);
        if (comma != std::string::npos) arg0 = args.substr(0, comma);

        const EventKind kind = void_discard_pending
                                   ? EventKind::kVoidDiscard
                                   : EventKind::kCall;
        const int eline = void_discard_pending ? void_discard_line : line;
        void_discard_pending = false;
        Event e;
        e.kind = kind;
        e.line = eline;
        e.name = chain;
        e.recv = recv;
        e.arg0 = Trim(arg0);
        e.stmt = stmt;
        e.in_wait_pred = in_wait_pred();
      e.in_lambda = in_lambda();
        e.has_reason = SiteMarker(line, kind == EventKind::kVoidDiscard
                                            ? "discard-ok:"
                                            : "blocking-ok:");
        e.lock_order_ok = SiteMarker(line, "lock-order-ok:");
        e.guarded_ok = SiteMarker(line, "guarded-ok:");
        e.held = snapshot();
        fn->events.push_back(std::move(e));

        if (last == "Wait" || last == "WaitFor" || last == "WaitUntil") {
          wait_arg_depths.push_back(paren_depth + 1);
        }
        ++paren_depth;  // walk into the argument list
        Next();
        prev_sig = -1;
        continue;
      }

      // Not a call: candidate guarded-field use.
      if (!unknown_recv && recv.find("::") == std::string::npos) {
        Event e;
        e.kind = EventKind::kFieldUse;
        e.line = line;
        e.name = last;
        e.recv = recv;
        e.in_wait_pred = in_wait_pred();
      e.in_lambda = in_lambda();
        e.guarded_ok = SiteMarker(line, "guarded-ok:");
        e.held = snapshot();
        fn->events.push_back(std::move(e));
      }
      prev_sig = static_cast<int>(pos_) - 1;
    }
  }

  /// With the cursor on '(', returns the argument text without moving.
  std::string PeekParenText() {
    const size_t save = pos_;
    std::string text = CollectParenText();
    pos_ = save;
    return text;
  }

  /// With the cursor on '(', reports whether the token after the
  /// matching ')' is ';'. Does not move the cursor.
  bool CallEndsStatement() {
    size_t i = pos_;
    int depth = 0;
    while (i < f_.tokens.size()) {
      const Token& t = f_.tokens[i];
      if (t.kind == TokKind::kPunct) {
        if (t.text == "(") ++depth;
        if (t.text == ")") {
          if (--depth == 0) {
            return i + 1 < f_.tokens.size() &&
                   f_.tokens[i + 1].kind == TokKind::kPunct &&
                   f_.tokens[i + 1].text == ";";
          }
        }
      }
      ++i;
    }
    return false;
  }

  static size_t FindTopComma(const std::string& s) {
    int depth = 0;
    for (size_t i = 0; i < s.size(); ++i) {
      const char c = s[i];
      if (c == '(' || c == '[' || c == '{' || c == '<') ++depth;
      if (c == ')' || c == ']' || c == '}' || c == '>') --depth;
      if (c == ',' && depth == 0) return i;
    }
    return std::string::npos;
  }

  const LexedFile& f_;
  size_t pos_ = 0;
  FileModel out_;
  std::vector<std::string> namespaces_;
  std::vector<std::string> classes_;
};

}  // namespace

FileModel ParseFile(const LexedFile& file) { return Parser(file).Run(); }

}  // namespace lint
}  // namespace spangle

// amlint — the repo's atomics-discipline lint.
//
// Walks a source tree (normally src/aml) and enforces the concurrency house
// rules that generic linters cannot express:
//
//   R1  every atomic operation names an explicit std::memory_order — an
//       implicit seq_cst is indistinguishable from an unconsidered one, and
//       this codebase documents every fence choice (seq_cst pairs are
//       load-bearing, e.g. the lock table's pin/drain Dekker).
//   R2  no blocking primitives (std::mutex, condition_variable, lock/
//       unique/scoped guards, sleeps) in the hot paths: src/aml/core and
//       src/aml/table. The paper's algorithms are busy-wait local-spin;
//       a hidden mutex would invalidate every RMR claim.
//   R3  no unpadded arrays of atomics (std::vector/std::array of
//       std::atomic) in the hot paths — shared per-slot state must be
//       pal::CachePadded to avoid false sharing, which would corrupt the
//       cache-coherent RMR accounting story.
//   R4  model-gated code (src/aml/core and the model-checked baseline
//       src/aml/baselines/jayanti.hpp) keeps its shared state in the word
//       spaces (paper primitives: read/write/FAA/CAS/wait on model words).
//       A plain std::atomic member bypasses the schedule gate, the RMR
//       accounting and the DPOR footprints. Pointers/references to atomics
//       are allowed: the paper's abort signal is exactly such an interface.
//   R5  shm-placed structures (inside AML_SHM_REGION_BEGIN/END markers,
//       in whatever file carries them) must not contain raw pointers,
//       references, or virtual functions. A shared segment maps at a
//       different base address in every process, so an absolute pointer or
//       a vtable pointer is only meaningful in the process that wrote it —
//       cross-segment links must use offset_ptr/offset_span, and behavior
//       must live outside the placed data. Member functions (declarations
//       containing a parameter list) are exempt: resolvers returning T*
//       against a caller-supplied base are exactly the intended idiom.
//   R6  instrumentation pairing in the instrumented layers (src/aml/core,
//       src/aml/table, src/aml/ipc): a sink object that emits `on_enter`
//       must also emit terminal hooks — `on_granted` AND `on_exit`, or
//       `on_abort` — somewhere in the same file. An attempt that is opened
//       but never terminated through the same sink produces metrics that
//       silently undercount grants/aborts (the class of bug where the
//       table's amortized stripe path zeroed its acquisition counters).
//       The check is per-receiver per-file — a token lint cannot prove
//       all-paths coverage, but a receiver with an enter and no terminal at
//       all is exactly the observed failure shape.
//   R7  recoverable-F&A journaling discipline (src/aml/ipc): every store
//       through a `phase` journal member must name memory_order_seq_cst —
//       the recovery arms read phases cross-process and the post-mortem
//       decision proofs in shm_journal.hpp assume one total order over phase
//       stores and lock-word CASes. And in any function body that both
//       announces a recoverable F&A (an `ann_desc….store(`) and issues a
//       CAS, the announcement store must precede the first CAS: a lock-word
//       CAS issued before its announcement is exactly the unjournalable
//       window the protocol exists to close.
//   R8  memory-ordering edge annotations (src/aml/core, src/aml/table,
//       src/aml/ipc, src/aml/model/native.hpp): every atomic operation
//       weaker than seq_cst — raw std::atomic calls naming a weak
//       std::memory_order, the ordered model vocabulary (model::ord::
//       read_acq/write_rel/read_rlx/write_rlx), and the space wait/
//       wait_either spins — must carry a happens-before annotation in a
//       nearby comment: AML_X_EDGE(name) on acquire-side ops,
//       AML_V_EDGE(name) on release-side ops, AML_RELAXED(why) on
//       justified-unordered ops (see aml/pal/edges.hpp). The tag must sit on
//       the op line, a continuation line of the call, or up to two lines
//       above, and its kind must be compatible with the op's order (a
//       V tag cannot justify a pure acquire load). memory_order_consume is
//       rejected outright. seq_cst ops need no tag but may carry one (they
//       are edge endpoints kept strong for other reasons — R9 records them).
//   R9  edge pairing against the manifest (--edges tools/edges.toml): every
//       name used in an AML_V_EDGE/AML_X_EDGE tag must be declared in the
//       manifest; every declared edge must have at least one release-side
//       (V) and one acquire-side (X) occurrence in the scanned tree; the
//       manifest's release/acquire endpoint file-parts must anchor at least
//       one matching tagged site; and every entry must carry non-empty
//       release/acquire/invariant/litmus keys. A manifest entry with no code
//       occurrence at all is a ghost and is an error — the manifest cannot
//       drift from the code in either direction.
//
// Findings can be suppressed through an allowlist file (one entry per line):
//
//   <rule>|<path-substring>|<line-substring>|<justification>
//
// Blank lines and lines starting with '#' are ignored. Every entry must
// justify itself; unused entries are reported as warnings so the list cannot
// rot — or as errors under --strict-unused (CI runs strict). Exit status:
// 0 clean, 1 findings, 2 usage/IO error.
//
// The scanner is token-based, not a real C++ parser: comments, string and
// character literals are blanked before matching, and calls may span lines.
// It is deliberately strict — prefer fixing the code or adding a justified
// allowlist entry over weakening a rule.

#include <cctype>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

namespace {

namespace fs = std::filesystem;

struct Finding {
  std::string file;   // path relative to the scanned root
  std::size_t line;   // 1-based
  std::string rule;   // "R1".."R7"
  std::string message;
  std::string excerpt;  // the offending source line (trimmed)
};

struct AllowEntry {
  std::string rule;
  std::string path_part;
  std::string line_part;
  std::string why;
  bool used = false;
};

/// Blank comments and the contents of string/char literals, preserving
/// offsets and newlines so positions keep mapping to lines.
std::string blank_noncode(const std::string& src) {
  std::string out = src;
  enum class St { kCode, kLine, kBlock, kStr, kChr } st = St::kCode;
  for (std::size_t i = 0; i < src.size(); ++i) {
    const char c = src[i];
    const char n = i + 1 < src.size() ? src[i + 1] : '\0';
    switch (st) {
      case St::kCode:
        if (c == '/' && n == '/') {
          st = St::kLine;
          out[i] = ' ';
        } else if (c == '/' && n == '*') {
          st = St::kBlock;
          out[i] = ' ';
        } else if (c == '"') {
          st = St::kStr;
        } else if (c == '\'') {
          st = St::kChr;
        }
        break;
      case St::kLine:
        if (c == '\n') {
          st = St::kCode;
        } else {
          out[i] = ' ';
        }
        break;
      case St::kBlock:
        if (c == '*' && n == '/') {
          out[i] = ' ';
          out[i + 1] = ' ';
          ++i;
          st = St::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case St::kStr:
        if (c == '\\') {
          out[i] = ' ';
          if (n != '\n' && n != '\0') out[++i] = ' ';
        } else if (c == '"') {
          st = St::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case St::kChr:
        if (c == '\\') {
          out[i] = ' ';
          if (n != '\n' && n != '\0') out[++i] = ' ';
        } else if (c == '\'') {
          st = St::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
    }
  }
  return out;
}

std::size_t line_of(const std::string& text, std::size_t pos) {
  std::size_t line = 1;
  for (std::size_t i = 0; i < pos && i < text.size(); ++i) {
    if (text[i] == '\n') ++line;
  }
  return line;
}

/// The source line containing `pos`, whitespace-trimmed (for excerpts; taken
/// from the original text so comments show).
std::string excerpt_at(const std::string& original, std::size_t pos) {
  std::size_t begin = original.rfind('\n', pos);
  begin = begin == std::string::npos ? 0 : begin + 1;
  std::size_t end = original.find('\n', pos);
  if (end == std::string::npos) end = original.size();
  std::string line = original.substr(begin, end - begin);
  const std::size_t a = line.find_first_not_of(" \t");
  const std::size_t b = line.find_last_not_of(" \t\r");
  if (a == std::string::npos) return {};
  return line.substr(a, b - a + 1);
}

/// Span [open, close] of the parenthesized argument list starting at the
/// '(' at `open`; npos when unbalanced.
std::size_t close_paren(const std::string& text, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < text.size(); ++i) {
    if (text[i] == '(') ++depth;
    if (text[i] == ')' && --depth == 0) return i;
  }
  return std::string::npos;
}

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// R1: every atomic member-function call must name a memory order.
void check_r1(const std::string& code, const std::string& original,
              const std::string& rel, std::vector<Finding>* findings) {
  static const char* kOps[] = {
      "load",          "store",
      "exchange",      "fetch_add",
      "fetch_sub",     "fetch_or",
      "fetch_and",     "fetch_xor",
      "test_and_set",  "compare_exchange_weak",
      "compare_exchange_strong",
  };
  for (const char* op : kOps) {
    const std::string needle = std::string(op) + "(";
    std::size_t pos = 0;
    while ((pos = code.find(needle, pos)) != std::string::npos) {
      const std::size_t at = pos;
      pos += needle.size();
      // Must be a member call: preceded by '.' or '->', and not a longer
      // identifier (e.g. reload().
      if (at == 0 || ident_char(code[at - 1]) ||
          !(code[at - 1] == '.' ||
            (code[at - 1] == '>' && at >= 2 && code[at - 2] == '-'))) {
        continue;
      }
      const std::size_t open = at + needle.size() - 1;
      const std::size_t close = close_paren(code, open);
      if (close == std::string::npos) continue;
      const std::string args = code.substr(open, close - open + 1);
      if (args.find("memory_order") != std::string::npos) continue;
      findings->push_back({rel, line_of(code, at), "R1",
                           std::string("atomic ") + op +
                               "() without an explicit std::memory_order",
                           excerpt_at(original, at)});
    }
  }
  // Free fences, too.
  std::size_t pos = 0;
  while ((pos = code.find("atomic_thread_fence(", pos)) != std::string::npos) {
    const std::size_t open = code.find('(', pos);
    const std::size_t close = close_paren(code, open);
    const std::string args =
        close == std::string::npos ? "" : code.substr(open, close - open + 1);
    if (args.find("memory_order") == std::string::npos) {
      findings->push_back({rel, line_of(code, pos), "R1",
                           "atomic_thread_fence without an explicit "
                           "std::memory_order",
                           excerpt_at(original, pos)});
    }
    pos = open;
    ++pos;
  }
}

/// R2: no blocking primitives in hot paths.
void check_r2(const std::string& code, const std::string& original,
              const std::string& rel, std::vector<Finding>* findings) {
  static const char* kBlocked[] = {
      "std::mutex",         "std::shared_mutex",
      "std::timed_mutex",   "std::recursive_mutex",
      "std::condition_variable", "std::lock_guard",
      "std::unique_lock",   "std::scoped_lock",
      "std::this_thread::sleep", "usleep(", "nanosleep(",
  };
  for (const char* tok : kBlocked) {
    std::size_t pos = 0;
    while ((pos = code.find(tok, pos)) != std::string::npos) {
      findings->push_back({rel, line_of(code, pos), "R2",
                           std::string("blocking primitive in a hot path: ") +
                               tok,
                           excerpt_at(original, pos)});
      pos += std::string(tok).size();
    }
  }
}

/// R3: arrays of atomics must be cache-line padded.
void check_r3(const std::string& code, const std::string& original,
              const std::string& rel, std::vector<Finding>* findings) {
  static const char* kBad[] = {"std::vector<std::atomic",
                               "std::array<std::atomic",
                               "std::deque<std::atomic"};
  for (const char* tok : kBad) {
    std::size_t pos = 0;
    while ((pos = code.find(tok, pos)) != std::string::npos) {
      findings->push_back(
          {rel, line_of(code, pos), "R3",
           "unpadded array of atomics (wrap the element in pal::CachePadded)",
           excerpt_at(original, pos)});
      pos += std::string(tok).size();
    }
  }
}

/// R4: no plain std::atomic state in model-gated code (pointers/references
/// to atomics — the abort-signal interface — are fine).
void check_r4(const std::string& code, const std::string& original,
              const std::string& rel, std::vector<Finding>* findings) {
  const std::string needle = "std::atomic<";
  std::size_t pos = 0;
  while ((pos = code.find(needle, pos)) != std::string::npos) {
    const std::size_t at = pos;
    pos += needle.size();
    // Inside another template argument list (std::vector<std::atomic<...>):
    // R3's business; don't double-report.
    if (at > 0 && code[at - 1] == '<') continue;
    // Find the matching '>' of the atomic's template argument.
    int depth = 0;
    std::size_t i = at + needle.size() - 1;
    for (; i < code.size(); ++i) {
      if (code[i] == '<') ++depth;
      if (code[i] == '>' && --depth == 0) break;
    }
    if (i >= code.size()) continue;
    ++i;
    while (i < code.size() &&
           std::isspace(static_cast<unsigned char>(code[i])) != 0) {
      ++i;
    }
    if (i < code.size() && (code[i] == '*' || code[i] == '&')) continue;
    findings->push_back({rel, line_of(code, at), "R4",
                         "plain std::atomic state in model-gated code (use "
                         "the word-space primitives)",
                         excerpt_at(original, at)});
  }
}

/// R5: no raw pointers, references, or virtuals in shm-placed data. The
/// region markers live in comments, so they are located in `original`
/// (blanking preserves offsets); the member scan runs over the blanked
/// `code` in the same span.
void check_r5(const std::string& code, const std::string& original,
              const std::string& rel, std::vector<Finding>* findings) {
  std::size_t cursor = 0;
  while ((cursor = original.find("AML_SHM_REGION_BEGIN", cursor)) !=
         std::string::npos) {
    const std::size_t begin = original.find('\n', cursor);
    std::size_t end = original.find("AML_SHM_REGION_END", cursor);
    if (begin == std::string::npos) break;
    if (end == std::string::npos) {
      findings->push_back({rel, line_of(original, cursor), "R5",
                           "AML_SHM_REGION_BEGIN without a matching END",
                           excerpt_at(original, cursor)});
      return;
    }
    cursor = end + 1;

    // Virtual anything: a vtable pointer is a process-local address baked
    // into shared memory.
    for (std::size_t v = begin; (v = code.find("virtual", v)) < end;) {
      if ((v == 0 || !ident_char(code[v - 1])) &&
          (v + 7 >= code.size() || !ident_char(code[v + 7]))) {
        findings->push_back({rel, line_of(code, v), "R5",
                             "virtual in shm-placed data (vtable pointers "
                             "are process-local)",
                             excerpt_at(original, v)});
      }
      v += 7;
    }

    // Raw pointer / reference data members: walk statement spans (between
    // ';'/'{'/'}') and flag '*'/'&' in declaration position. Statements
    // containing '(' are member-function declarations — exempt.
    std::size_t stmt_begin = begin;
    for (std::size_t i = begin; i <= end; ++i) {
      if (i < end && code[i] != ';' && code[i] != '{' && code[i] != '}') {
        continue;
      }
      const std::size_t stmt_at = stmt_begin;
      const std::string stmt = code.substr(stmt_at, i - stmt_at);
      stmt_begin = i + 1;
      if (stmt.find('(') != std::string::npos) continue;
      for (std::size_t k = 0; k < stmt.size(); ++k) {
        if (stmt[k] != '*' && stmt[k] != '&') continue;
        // Skip '**' / '&&' (the latter is a logical op or rvalue ref; both
        // are never a bare shm data member) — and don't re-flag position 2.
        if (k + 1 < stmt.size() && stmt[k + 1] == stmt[k]) {
          ++k;
          continue;
        }
        if (k > 0 && stmt[k - 1] == stmt[k]) continue;
        std::size_t prev = k;
        while (prev > 0 &&
               std::isspace(static_cast<unsigned char>(stmt[prev - 1])) != 0) {
          --prev;
        }
        if (prev == 0 ||
            (!ident_char(stmt[prev - 1]) && stmt[prev - 1] != '>')) {
          continue;  // unary &/* (address-of, deref), not a declarator
        }
        std::size_t next = k + 1;
        while (next < stmt.size() &&
               std::isspace(static_cast<unsigned char>(stmt[next])) != 0) {
          ++next;
        }
        if (next >= stmt.size() || (!std::isalpha(static_cast<unsigned char>(
                                        stmt[next])) &&
                                    stmt[next] != '_')) {
          continue;
        }
        findings->push_back(
            {rel, line_of(code, stmt_at + k), "R5",
             stmt[k] == '*'
                 ? "raw pointer member in shm-placed data (use offset_ptr)"
                 : "reference member in shm-placed data (store offsets)",
             excerpt_at(original, stmt_at + k)});
      }
    }
  }
}

/// R6: instrumentation pairing. Collect, per receiver object, every
/// `<recv>.on_enter(` / `<recv>->on_enter(` emission (declarations and
/// definitions are not preceded by '.'/'->' and never match), plus which
/// terminal hooks the same receiver emits anywhere in the file. A receiver
/// with enters but neither (granted AND exit) nor abort is reported at each
/// of its enter sites.
void check_r6(const std::string& code, const std::string& original,
              const std::string& rel, std::vector<Finding>* findings) {
  struct Hooks {
    std::vector<std::size_t> enters;  // positions of on_enter emissions
    bool granted = false;
    bool exited = false;
    bool aborted = false;
  };
  std::vector<std::pair<std::string, Hooks>> receivers;
  const auto hooks_of = [&receivers](const std::string& recv) -> Hooks& {
    for (auto& [name, hooks] : receivers) {
      if (name == recv) return hooks;
    }
    receivers.push_back({recv, Hooks{}});
    return receivers.back().second;
  };

  static const char* kHookNames[] = {"on_enter", "on_granted", "on_exit",
                                     "on_abort"};
  for (int which = 0; which < 4; ++which) {
    const std::string needle = std::string(kHookNames[which]) + "(";
    std::size_t pos = 0;
    while ((pos = code.find(needle, pos)) != std::string::npos) {
      const std::size_t at = pos;
      pos += needle.size();
      // Emission sites only: a member call through '.' or '->', and not a
      // longer identifier (e.g. journal_on_enter().
      if (at == 0 || ident_char(code[at - 1]) ||
          !(code[at - 1] == '.' ||
            (code[at - 1] == '>' && at >= 2 && code[at - 2] == '-'))) {
        continue;
      }
      // Extract the receiver identifier to the left of the '.'/'->'.
      std::size_t r_end = at - (code[at - 1] == '.' ? 1 : 2);
      std::size_t r_begin = r_end;
      while (r_begin > 0 && ident_char(code[r_begin - 1])) --r_begin;
      // Chained-expression receivers ((expr).on_enter) all share a bucket:
      // better one merged approximation than a false positive per chain.
      const std::string recv = r_begin == r_end
                                   ? std::string("(expr)")
                                   : code.substr(r_begin, r_end - r_begin);
      Hooks& h = hooks_of(recv);
      switch (which) {
        case 0: h.enters.push_back(at); break;
        case 1: h.granted = true; break;
        case 2: h.exited = true; break;
        case 3: h.aborted = true; break;
      }
    }
  }

  for (const auto& [recv, h] : receivers) {
    if (h.enters.empty()) continue;
    if ((h.granted && h.exited) || h.aborted) continue;
    for (const std::size_t at : h.enters) {
      findings->push_back(
          {rel, line_of(code, at), "R6",
           "on_enter emitted through '" + recv +
               "' with no terminal hook from the same sink in this file "
               "(need on_granted+on_exit, or on_abort)",
           excerpt_at(original, at)});
    }
  }
}

/// R7: recoverable-F&A journaling discipline (ipc/ only). (a) Every store
/// through a member named `phase` must be seq_cst. (b) Per function body:
/// if it contains both an `ann_desc` announcement store and a CAS token
/// (`.cas(` or `compare_exchange`), the first announcement store must come
/// first. Function bodies are found token-wise: a '{' whose previous
/// non-space token is ')' (allowing a `const`/`noexcept`/`override` tail)
/// and whose call-like head is not a control keyword — this matches member
/// functions and lambdas, and skips if/for/while/switch blocks.
void check_r7(const std::string& code, const std::string& original,
              const std::string& rel, std::vector<Finding>* findings) {
  const std::string phase_store = "phase.store(";
  std::size_t pos = 0;
  while ((pos = code.find(phase_store, pos)) != std::string::npos) {
    const std::size_t at = pos;
    pos += phase_store.size();
    const std::size_t open = at + phase_store.size() - 1;
    const std::size_t close = close_paren(code, open);
    if (close == std::string::npos) continue;
    const std::string args = code.substr(open, close - open + 1);
    if (args.find("memory_order_seq_cst") != std::string::npos) continue;
    findings->push_back(
        {rel, line_of(code, at), "R7",
         "phase journal store without std::memory_order_seq_cst (recovery "
         "reads journaled phases cross-process in one total order)",
         excerpt_at(original, at)});
  }

  const auto skip_ws_back = [&code](std::size_t k) {
    while (k > 0 &&
           std::isspace(static_cast<unsigned char>(code[k - 1])) != 0) {
      --k;
    }
    return k;
  };
  std::size_t scan = 0;
  while ((scan = code.find('{', scan)) != std::string::npos) {
    const std::size_t body_open = scan++;
    std::size_t j = skip_ws_back(body_open);
    for (const char* tail : {"const", "noexcept", "override"}) {
      const std::size_t len = std::string(tail).size();
      if (j >= len && code.compare(j - len, len, tail) == 0) {
        j = skip_ws_back(j - len);
      }
    }
    if (j == 0 || code[j - 1] != ')') continue;
    int depth = 0;
    std::size_t open = j - 1;
    while (true) {
      if (code[open] == ')') ++depth;
      if (code[open] == '(' && --depth == 0) break;
      if (open == 0) break;
      --open;
    }
    if (code[open] != '(') continue;
    std::size_t head_end = skip_ws_back(open);
    std::size_t head_begin = head_end;
    while (head_begin > 0 && ident_char(code[head_begin - 1])) --head_begin;
    const std::string head = code.substr(head_begin, head_end - head_begin);
    if (head == "if" || head == "for" || head == "while" ||
        head == "switch" || head == "catch" || head == "return" ||
        head == "sizeof") {
      continue;
    }
    int bdepth = 0;
    std::size_t body_close = body_open;
    for (; body_close < code.size(); ++body_close) {
      if (code[body_close] == '{') ++bdepth;
      if (code[body_close] == '}' && --bdepth == 0) break;
    }
    if (body_close >= code.size()) continue;
    const std::string body =
        code.substr(body_open, body_close - body_open);
    const std::size_t ann = body.find("ann_desc.store(");
    if (ann == std::string::npos) continue;
    std::size_t cas = body.find(".cas(");
    const std::size_t ce = body.find("compare_exchange");
    if (ce != std::string::npos &&
        (cas == std::string::npos || ce < cas)) {
      cas = ce;
    }
    if (cas == std::string::npos || ann < cas) continue;
    findings->push_back(
        {rel, line_of(code, body_open + cas), "R7",
         "CAS issued before the recoverable-F&A announcement store in the "
         "same function (announce in the PassageSlot first, then stamp)",
         excerpt_at(original, body_open + cas)});
  }
}

// ---- R8/R9: happens-before edge annotations --------------------------------

/// One AML_V_EDGE/AML_X_EDGE occurrence, collected from the ORIGINAL text —
/// the annotations are comments, so blanking erases them.
struct EdgeSite {
  char kind;  // 'V' release side, 'X' acquire side
  std::string name;
  std::string file;
  std::size_t line;
};

/// One `[edges."name"]` manifest entry (tools/edges.toml).
struct EdgeDecl {
  std::string name;
  std::string release;
  std::string acquire;
  std::string invariant;
  std::string litmus;
  std::size_t line = 0;
  bool v_seen = false;
  bool x_seen = false;
};

/// 1-based line view of a file (index 0 is an unused sentinel).
std::vector<std::string> split_lines(const std::string& s) {
  std::vector<std::string> lines{std::string{}};
  std::string cur;
  for (const char c : s) {
    if (c == '\n') {
      lines.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  lines.push_back(cur);
  return lines;
}

void collect_edge_sites(const std::string& original, const std::string& rel,
                        std::vector<EdgeSite>* sites) {
  for (const char* tag : {"AML_V_EDGE(", "AML_X_EDGE("}) {
    const std::string needle = tag;
    std::size_t pos = 0;
    while ((pos = original.find(needle, pos)) != std::string::npos) {
      const std::size_t open = pos + needle.size();
      const std::size_t close = original.find(')', open);
      pos = open;
      if (close == std::string::npos) continue;
      sites->push_back({needle[4], original.substr(open, close - open), rel,
                        line_of(original, open)});
    }
  }
}

/// R8. Ops are located in the blanked `code`; tag presence is probed in the
/// original's lines over [op-line - 2, close-paren line] so trailing
/// comments on continuation lines of a multi-line call count.
void check_r8(const std::string& code, const std::string& original,
              const std::string& rel, std::vector<Finding>* findings) {
  const std::vector<std::string> lines = split_lines(original);
  const auto has_tag = [&lines](std::size_t lo, std::size_t hi,
                                const char* tag) {
    if (lo < 1) lo = 1;
    if (hi >= lines.size()) hi = lines.size() - 1;
    for (std::size_t i = lo; i <= hi; ++i) {
      if (lines[i].find(tag) != std::string::npos) return true;
    }
    return false;
  };

  // (a) Raw std::atomic member calls naming a weak memory order.
  static const char* kOps[] = {
      "load",          "store",
      "exchange",      "fetch_add",
      "fetch_sub",     "fetch_or",
      "fetch_and",     "fetch_xor",
      "test_and_set",  "compare_exchange_weak",
      "compare_exchange_strong",
  };
  for (const char* op : kOps) {
    const std::string needle = std::string(op) + "(";
    std::size_t pos = 0;
    while ((pos = code.find(needle, pos)) != std::string::npos) {
      const std::size_t at = pos;
      pos += needle.size();
      if (at == 0 || ident_char(code[at - 1]) ||
          !(code[at - 1] == '.' ||
            (code[at - 1] == '>' && at >= 2 && code[at - 2] == '-'))) {
        continue;
      }
      const std::size_t open = at + needle.size() - 1;
      const std::size_t close = close_paren(code, open);
      if (close == std::string::npos) continue;
      const std::string args = code.substr(open, close - open + 1);
      if (args.find("memory_order") == std::string::npos) continue;  // R1
      const bool has_rlx =
          args.find("memory_order_relaxed") != std::string::npos;
      const bool has_acq =
          args.find("memory_order_acquire") != std::string::npos ||
          args.find("memory_order_acq_rel") != std::string::npos;
      const bool has_rel =
          args.find("memory_order_release") != std::string::npos ||
          args.find("memory_order_acq_rel") != std::string::npos;
      const bool has_seq =
          args.find("memory_order_seq_cst") != std::string::npos;
      if (args.find("memory_order_consume") != std::string::npos) {
        findings->push_back({rel, line_of(code, at), "R8",
                             "memory_order_consume is not part of the house "
                             "vocabulary (no compiler implements it as "
                             "anything but acquire; use acquire + an edge)",
                             excerpt_at(original, at)});
        continue;
      }
      // seq_cst success with a relaxed failure order is the strong idiom —
      // the failure path is a plain load and carries no edge.
      if (has_seq && !has_acq && !has_rel) continue;
      if (!has_rlx && !has_acq && !has_rel) continue;  // pure seq_cst
      const std::size_t op_line = line_of(code, at);
      const std::size_t lo = op_line >= 3 ? op_line - 2 : 1;
      const std::size_t hi = line_of(code, close);
      const bool tv = has_tag(lo, hi, "AML_V_EDGE(");
      const bool tx = has_tag(lo, hi, "AML_X_EDGE(");
      const bool tr = has_tag(lo, hi, "AML_RELAXED(");
      const bool pure_rlx = has_rlx && !has_acq && !has_rel && !has_seq;
      const bool v_ok = tv && has_rel;
      const bool x_ok = tx && has_acq;
      const bool r_ok = tr && pure_rlx;
      if (v_ok || x_ok || r_ok) continue;
      if (tv || tx || tr) {
        findings->push_back(
            {rel, op_line, "R8",
             "edge annotation incompatible with the op's memory order (V "
             "needs a release-capable op, X an acquire-capable one, "
             "AML_RELAXED a fully relaxed one)",
             excerpt_at(original, at)});
      } else {
        findings->push_back(
            {rel, op_line, "R8",
             std::string("atomic ") + op +
                 "() weaker than seq_cst without an AML_V_EDGE / "
                 "AML_X_EDGE / AML_RELAXED annotation (see "
                 "aml/pal/edges.hpp and tools/edges.toml)",
             excerpt_at(original, at)});
      }
    }
  }

  // (b) The ordered model vocabulary: these calls lower to the weak ops
  // under the native model, whatever the space, so they carry the edge.
  struct ModelOp {
    const char* needle;
    const char* tag;
    const char* need;
  };
  static const ModelOp kModelOps[] = {
      {"ord::read_acq(", "AML_X_EDGE(", "an AML_X_EDGE annotation"},
      {"ord::write_rel(", "AML_V_EDGE(", "an AML_V_EDGE annotation"},
      {"ord::read_rlx(", "AML_RELAXED(", "an AML_RELAXED justification"},
      {"ord::write_rlx(", "AML_RELAXED(", "an AML_RELAXED justification"},
      {".wait(", "AML_X_EDGE(", "an AML_X_EDGE annotation"},
      {".wait_either(", "AML_X_EDGE(", "an AML_X_EDGE annotation"},
      {"->wait(", "AML_X_EDGE(", "an AML_X_EDGE annotation"},
      {"->wait_either(", "AML_X_EDGE(", "an AML_X_EDGE annotation"},
  };
  for (const ModelOp& m : kModelOps) {
    const std::string needle = m.needle;
    std::size_t pos = 0;
    while ((pos = code.find(needle, pos)) != std::string::npos) {
      const std::size_t at = pos;
      pos += needle.size();
      // The ord:: needles must not be the tail of a longer identifier; the
      // .wait/->wait needles embed their own member-call marker.
      if (needle[0] != '.' && needle[0] != '-' && at > 0 &&
          ident_char(code[at - 1])) {
        continue;
      }
      const std::size_t open = at + needle.size() - 1;
      const std::size_t close = close_paren(code, open);
      if (close == std::string::npos) continue;
      const std::size_t op_line = line_of(code, at);
      const std::size_t lo = op_line >= 3 ? op_line - 2 : 1;
      const std::size_t hi = line_of(code, close);
      if (has_tag(lo, hi, m.tag)) continue;
      findings->push_back(
          {rel, op_line, "R8",
           std::string("ordered-model op ") + m.needle +
               "...) without " + m.need +
               " (the wait spin is the acquire endpoint of its edge)",
           excerpt_at(original, at)});
    }
  }
}

/// Minimal parse of the `[edges."name"]` manifest (a deliberate TOML
/// subset: section headers + `key = "value"` lines + comments).
bool load_edges(const std::string& path, std::vector<EdgeDecl>* out) {
  std::ifstream in(path);
  if (!in) return false;
  std::string raw;
  std::size_t lineno = 0;
  EdgeDecl* cur = nullptr;
  while (std::getline(in, raw)) {
    ++lineno;
    const std::size_t a = raw.find_first_not_of(" \t");
    if (a == std::string::npos) continue;
    const std::size_t b = raw.find_last_not_of(" \t\r");
    const std::string t = raw.substr(a, b - a + 1);
    if (t[0] == '#') continue;
    const std::string head = "[edges.\"";
    if (t.rfind(head, 0) == 0) {
      const std::size_t close = t.find("\"]");
      if (close == std::string::npos || close <= head.size()) return false;
      out->push_back({});
      cur = &out->back();
      cur->name = t.substr(head.size(), close - head.size());
      cur->line = lineno;
      continue;
    }
    if (cur == nullptr) continue;
    const std::size_t eq = t.find('=');
    if (eq == std::string::npos) continue;
    std::string key = t.substr(0, eq);
    const std::size_t ke = key.find_last_not_of(" \t");
    key = ke == std::string::npos ? std::string{} : key.substr(0, ke + 1);
    std::string val = t.substr(eq + 1);
    const std::size_t va = val.find_first_not_of(" \t");
    val = va == std::string::npos ? std::string{} : val.substr(va);
    if (val.size() >= 2 && val.front() == '"' && val.back() == '"') {
      val = val.substr(1, val.size() - 2);
    }
    if (key == "release") cur->release = val;
    else if (key == "acquire") cur->acquire = val;
    else if (key == "invariant") cur->invariant = val;
    else if (key == "litmus") cur->litmus = val;
  }
  return true;
}

/// R9: cross-check collected tag sites against the manifest, both ways.
void check_r9(std::vector<EdgeDecl>& decls,
              const std::vector<EdgeSite>& sites, const std::string& manifest,
              std::vector<Finding>* findings) {
  const auto find_decl = [&decls](const std::string& name) -> EdgeDecl* {
    for (EdgeDecl& d : decls) {
      if (d.name == name) return &d;
    }
    return nullptr;
  };
  for (const EdgeSite& s : sites) {
    EdgeDecl* d = find_decl(s.name);
    if (d == nullptr) {
      findings->push_back(
          {s.file, s.line, "R9",
           "edge tag names '" + s.name + "', which is not declared in " +
               manifest,
           std::string(s.kind == 'V' ? "AML_V_EDGE(" : "AML_X_EDGE(") +
               s.name + ")"});
      continue;
    }
    (s.kind == 'V' ? d->v_seen : d->x_seen) = true;
  }
  const auto anchor_ok = [&sites](const std::string& endpoint, char kind,
                                  const std::string& name) {
    const std::size_t sp = endpoint.find(' ');
    const std::string file_part =
        sp == std::string::npos ? endpoint : endpoint.substr(0, sp);
    if (file_part.empty()) return false;
    for (const EdgeSite& s : sites) {
      if (s.kind == kind && s.name == name &&
          s.file.find(file_part) != std::string::npos) {
        return true;
      }
    }
    return false;
  };
  for (EdgeDecl& d : decls) {
    const std::string header = "[edges.\"" + d.name + "\"]";
    if (d.release.empty() || d.acquire.empty() || d.invariant.empty() ||
        d.litmus.empty()) {
      findings->push_back(
          {manifest, d.line, "R9",
           "edge '" + d.name +
               "' is missing a required key (release, acquire, invariant, "
               "litmus)",
           header});
    }
    if (!d.v_seen && !d.x_seen) {
      findings->push_back(
          {manifest, d.line, "R9",
           "ghost manifest entry: edge '" + d.name +
               "' has no AML_V_EDGE/AML_X_EDGE occurrence in the scanned "
               "tree",
           header});
      continue;
    }
    if (!d.v_seen) {
      findings->push_back(
          {manifest, d.line, "R9",
           "edge '" + d.name +
               "' has acquire-side (X) occurrences but no release-side "
               "AML_V_EDGE occurrence — a one-sided edge synchronizes "
               "nothing",
           header});
    }
    if (!d.x_seen) {
      findings->push_back(
          {manifest, d.line, "R9",
           "edge '" + d.name +
               "' has release-side (V) occurrences but no acquire-side "
               "AML_X_EDGE occurrence — a one-sided edge synchronizes "
               "nothing",
           header});
    }
    if (d.v_seen && !anchor_ok(d.release, 'V', d.name)) {
      findings->push_back(
          {manifest, d.line, "R9",
           "release endpoint '" + d.release +
               "' does not anchor any V-tagged site of edge '" + d.name +
               "' (file-part must substring-match a tagged file)",
           header});
    }
    if (d.x_seen && !anchor_ok(d.acquire, 'X', d.name)) {
      findings->push_back(
          {manifest, d.line, "R9",
           "acquire endpoint '" + d.acquire +
               "' does not anchor any X-tagged site of edge '" + d.name +
               "' (file-part must substring-match a tagged file)",
           header});
    }
  }
}

bool in_hot_path(const std::string& rel) {
  return rel.find("core/") != std::string::npos ||
         rel.find("table/") != std::string::npos;
}

bool in_shm_scope(const std::string& rel) {
  return rel.find("ipc/") != std::string::npos;
}

bool in_edge_scope(const std::string& rel) {
  // R8/R9 coverage: the model-gated hot paths, the cross-process layer and
  // the native lowering — everywhere a weak order reaches real silicon.
  return rel.find("core/") != std::string::npos ||
         rel.find("table/") != std::string::npos ||
         rel.find("ipc/") != std::string::npos ||
         rel.find("model/native") != std::string::npos;
}

bool in_model_gated(const std::string& rel) {
  // core/ runs under the DPOR explorer wholesale; of the baselines only the
  // Jayanti amortized lock is model-checked (the jayanti-abandon-epochs
  // workload explores it), so it carries the same no-plain-atomics
  // discipline.
  return rel.find("core/") != std::string::npos ||
         rel.find("baselines/jayanti") != std::string::npos;
}

bool load_allowlist(const std::string& path, std::vector<AllowEntry>* out) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    AllowEntry e;
    std::istringstream is(line);
    std::getline(is, e.rule, '|');
    std::getline(is, e.path_part, '|');
    std::getline(is, e.line_part, '|');
    std::getline(is, e.why);
    if (e.rule.empty() || e.path_part.empty()) {
      std::cerr << "amlint: malformed allowlist entry: " << line << "\n";
      return false;
    }
    out->push_back(std::move(e));
  }
  return true;
}

bool allowed(const Finding& f, std::vector<AllowEntry>* allow) {
  for (AllowEntry& e : *allow) {
    if (e.rule != f.rule) continue;
    if (f.file.find(e.path_part) == std::string::npos) continue;
    if (!e.line_part.empty() &&
        f.excerpt.find(e.line_part) == std::string::npos) {
      continue;
    }
    e.used = true;
    return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  static const char* kUsage =
      "usage: amlint <source-root> [--allow <allowlist>] "
      "[--edges <manifest.toml>] [--strict-unused]\n";
  std::string root;
  std::string allow_path;
  std::string edges_path;
  bool strict_unused = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--allow" && i + 1 < argc) {
      allow_path = argv[++i];
    } else if (arg == "--edges" && i + 1 < argc) {
      edges_path = argv[++i];
    } else if (arg == "--strict-unused") {
      strict_unused = true;
    } else if (arg == "--help" || arg == "-h") {
      std::cout << kUsage;
      return 0;
    } else if (root.empty()) {
      root = arg;
    } else {
      std::cerr << "amlint: unexpected argument " << arg << "\n";
      return 2;
    }
  }
  if (root.empty()) {
    std::cerr << kUsage;
    return 2;
  }
  std::vector<AllowEntry> allow;
  if (!allow_path.empty() && !load_allowlist(allow_path, &allow)) {
    std::cerr << "amlint: cannot read allowlist " << allow_path << "\n";
    return 2;
  }

  std::vector<Finding> findings;
  std::vector<EdgeSite> sites;
  std::size_t files = 0;
  std::error_code ec;
  for (fs::recursive_directory_iterator it(root, ec), end; it != end;
       it.increment(ec)) {
    if (ec) {
      std::cerr << "amlint: walk error under " << root << ": " << ec.message()
                << "\n";
      return 2;
    }
    if (!it->is_regular_file()) continue;
    const fs::path& p = it->path();
    const std::string ext = p.extension().string();
    if (ext != ".hpp" && ext != ".cpp" && ext != ".h" && ext != ".cc") {
      continue;
    }
    std::ifstream in(p, std::ios::binary);
    if (!in) {
      std::cerr << "amlint: cannot read " << p << "\n";
      return 2;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string original = buf.str();
    const std::string code = blank_noncode(original);
    const std::string rel =
        fs::relative(p, root, ec).generic_string();
    ++files;
    check_r1(code, original, rel, &findings);
    if (in_hot_path(rel)) {
      check_r2(code, original, rel, &findings);
      check_r3(code, original, rel, &findings);
    }
    if (in_model_gated(rel)) {
      check_r4(code, original, rel, &findings);
    }
    // R5 follows the markers, not a directory: shm-placed data is declared
    // wherever its owner lives (the obs/ event ring, for one).
    check_r5(code, original, rel, &findings);
    if (in_shm_scope(rel)) {
      check_r7(code, original, rel, &findings);
    }
    if (in_hot_path(rel) || in_shm_scope(rel)) {
      check_r6(code, original, rel, &findings);
    }
    if (in_edge_scope(rel)) {
      check_r8(code, original, rel, &findings);
      collect_edge_sites(original, rel, &sites);
    }
  }

  if (!edges_path.empty()) {
    std::vector<EdgeDecl> decls;
    if (!load_edges(edges_path, &decls)) {
      std::cerr << "amlint: cannot read edge manifest " << edges_path << "\n";
      return 2;
    }
    check_r9(decls, sites, edges_path, &findings);
  }

  std::size_t reported = 0;
  for (const Finding& f : findings) {
    if (allowed(f, &allow)) continue;
    ++reported;
    std::cout << f.file << ":" << f.line << ": [" << f.rule << "] "
              << f.message << "\n    " << f.excerpt << "\n";
  }
  for (const AllowEntry& e : allow) {
    if (e.used) continue;
    const std::string entry =
        e.rule + "|" + e.path_part + "|" + e.line_part;
    if (strict_unused) {
      ++reported;
      std::cout << allow_path << ":0: [ALLOW] unused allowlist entry "
                << "(strict mode): " << entry << "\n";
    } else {
      std::cerr << "amlint: warning: unused allowlist entry: " << entry
                << "\n";
    }
  }
  std::cout << "amlint: " << files << " files, " << reported
            << " finding(s)";
  if (!allow.empty()) {
    std::size_t used = 0;
    for (const AllowEntry& e : allow) used += e.used ? 1 : 0;
    std::cout << ", " << used << " allowlisted";
  }
  std::cout << "\n";
  return reported == 0 ? 0 : 1;
}

// store-key-schema: Store keys are a cross-process wire protocol — every
// rank must compute byte-identical keys or rendezvous and bucket-layout
// exchange silently miss each other. comm/store_keys.h is the single
// legal mint for key namespaces (reducer/, rendezvous/, pgtcp/);
// this pass flags any string literal shaped like a key-namespace prefix
// (`lowercase_ident/`) in src/comm/ or src/core/ outside that header.
//
// The shape check runs on the literal's text, which the lexer captures
// before blanking (comments never reach the literal list, and #include
// lines are excluded because module paths share the shape).

#include <cctype>
#include <string>
#include <vector>

#include "ddplint/lexer.h"
#include "ddplint/passes.h"

namespace ddplint {
namespace {

const char kRule[] = "store-key-schema";

/// `^[a-z0-9_]+/` — a lowercase identifier immediately followed by '/'.
bool LooksLikeKeyNamespace(const std::string& text) {
  size_t i = 0;
  while (i < text.size() &&
         (std::islower(static_cast<unsigned char>(text[i])) != 0 ||
          std::isdigit(static_cast<unsigned char>(text[i])) != 0 ||
          text[i] == '_')) {
    ++i;
  }
  return i > 0 && i < text.size() && text[i] == '/';
}

bool LineIsPreprocessor(const std::string& code) {
  const size_t i = code.find_first_not_of(" \t");
  return i != std::string::npos && code[i] == '#';
}

}  // namespace

void RunStoreKeySchema(const PassContext& ctx, std::vector<Violation>* out) {
  const std::string& path = ctx.file.path;
  if (!InDir(path, "comm/") && !InDir(path, "core/")) return;
  if (MentionsFile(path, "comm/store_keys.")) return;  // the mint itself
  if (ctx.waivers.file_rules.count(kRule) > 0) return;

  for (const StringLiteral& lit : ctx.file.strings) {
    if (!LooksLikeKeyNamespace(lit.text)) continue;
    if (lit.line < ctx.file.code.size() &&
        LineIsPreprocessor(ctx.file.code[lit.line])) {
      continue;  // #include "comm/store.h" shares the shape
    }
    if (ctx.waivers.Covers(kRule, lit.line)) continue;

    out->push_back(Violation{
        path, lit.line + 1, kRule,
        "\"" + lit.text +
            "\" — a Store key namespace minted outside comm/store_keys.h; "
            "keys are a cross-rank wire protocol, and two call sites "
            "composing the same key by hand will drift",
        "build the key through a comm/store_keys.h helper (add one there "
        "if the namespace is new); waive literals that merely look like a "
        "key with // ddplint: allow(store-key-schema) <reason>"});
  }
}

}  // namespace ddplint

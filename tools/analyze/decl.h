// Statement segmentation and declaration matching over the token/scope
// layer — the shared grammar fragment behind the shared-mutable-static,
// hash- and codec-coverage and coro-dangling-ref passes.
//
// A "statement" is the run of tokens that live directly in one scope,
// split at top-level ';' (paren depth 0, so classic for-headers stay
// whole) and at nested-block gaps (a '{…}' body or initializer shows up
// as a break in token indices). Declarations are then matched by shape:
//   [specifiers] type-tokens [&|&&|*] name ( '=' init | gap | end )
// with anything containing a top-level '(' in its head rejected — that
// shape is a function declaration, call or expression, not a variable.
#pragma once

#include <optional>
#include <vector>

#include "analyze/analyze.h"

namespace iotsim::analyze {

struct Statement {
  std::vector<std::size_t> toks;  // token indices, in order, same scope
};

/// Statements whose tokens live directly in block `block` (-1 = file
/// scope) — nested blocks contribute nothing (their tokens belong to the
/// inner scope).
[[nodiscard]] std::vector<Statement> statements_of_scope(const FileUnit& unit, int block);

struct VarDecl {
  std::size_t name_tok = 0;      // token index of the declared name
  std::string_view name;
  bool is_ref = false;           // declarator preceded by & / &&
  bool is_ptr = false;           // declarator preceded by *
  std::vector<std::size_t> head; // tokens before '=' (or the whole stmt)
  std::vector<std::size_t> init; // tokens after '=', empty if none
};

/// Matches `stmt` against the variable-declaration shape above; nullopt
/// for control statements, expressions, function declarations, using/
/// typedef/friend/template constructs.
[[nodiscard]] std::optional<VarDecl> parse_var_decl(const FileUnit& unit, const Statement& stmt);

/// True when the statement's head contains the identifier `word`.
[[nodiscard]] bool head_contains(const FileUnit& unit, const VarDecl& decl,
                                 std::string_view word);

}  // namespace iotsim::analyze

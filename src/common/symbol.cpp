#include "common/symbol.h"

#include <cassert>
#include <deque>
#include <unordered_map>

namespace magma::common {

namespace {

struct SymbolTable {
  // A deque never moves its elements, so the views keyed below (and the
  // references symbol_name hands out) stay valid as the table grows.
  std::deque<std::string> names;
  std::unordered_map<std::string_view, Symbol> ids;
};

// Function-local, so interning from another static initializer is safe.
SymbolTable& table() {
  static SymbolTable t;
  return t;
}

}  // namespace

Symbol intern(std::string_view name) {
  SymbolTable& t = table();
  if (auto it = t.ids.find(name); it != t.ids.end()) return it->second;
  const Symbol symbol = static_cast<Symbol>(t.names.size());
  t.ids.emplace(t.names.emplace_back(name), symbol);
  return symbol;
}

std::optional<Symbol> find_symbol(std::string_view name) {
  const SymbolTable& t = table();
  if (auto it = t.ids.find(name); it != t.ids.end()) return it->second;
  return std::nullopt;
}

const std::string& symbol_name(Symbol symbol) {
  const SymbolTable& t = table();
  assert(symbol < t.names.size());
  return t.names[symbol];
}

std::size_t symbol_count() { return table().names.size(); }

}  // namespace magma::common

// Process-wide symbol table: one dense integer per distinct string.
//
// Hot stores that would otherwise keep the same few names as std::string in
// every record (metricsd's rows carry a gateway id each, the AGW subscriber
// cache's rows a policy name) keep a 4-byte Symbol instead and resolve it
// back to its name at the edge. The table is append-only, so a Symbol and
// the name it resolves to stay valid for the life of the process.
//
// Intern only bounded vocabularies — metric names, gateway ids, rule names,
// policy names — never per-subscriber values such as IMSIs or passwords:
// nothing is ever removed.
//
// Single-threaded, like the simulator and obs::host_label. host_label keeps
// its own registry: its ids are dense slots of HostProfiler's stats vector
// and it runs from static initializers, so it must not share this table's
// numbering.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace magma::common {

using Symbol = std::uint32_t;

// The symbol of `name`, interning it on first sight. Ids are dense in
// first-intern order. A hit allocates nothing.
Symbol intern(std::string_view name);

// The symbol of `name` if it was ever interned; never grows the table, so a
// query about an unknown name leaves no trace.
std::optional<Symbol> find_symbol(std::string_view name);

// The name `symbol` was interned from. The reference stays valid.
const std::string& symbol_name(Symbol symbol);

// Symbols interned so far (every symbol is < this).
std::size_t symbol_count();

}  // namespace magma::common

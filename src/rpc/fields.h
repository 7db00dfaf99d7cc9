// One field list per wire message, and the codec that walks it.
//
// A message's layout is written once, as its fields in wire order, in the
// namespace that declares the message:
//
//   MAGMA_WIRE_FIELDS(AttachAccept, m.m_tmsi, m.bearer, m.mac);
//
// Encoding and decoding both walk that list, so the two directions cannot
// drift apart. Each field travels as one Writer/Reader call: integers at
// their width (an int64 as its u64 bits), a double as its IEEE-754 bits,
// bool as one byte, an enum as its underlying integer, strings and byte
// strings length-prefixed, a fixed-length byte array length-prefixed and
// checked against its length, a TEID / node id / IPv4 address as its u32,
// an IMSI as its string (and checked valid), and a struct with its own field
// list as those fields in order. Collections of those: a vector as a u64
// count and its elements, and a fixed-length array of anything but bytes as
// a u8 count, checked against its length, and its elements.
#pragma once

#include <algorithm>
#include <array>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "common/bytes.h"
#include "common/ids.h"
#include "common/result.h"
#include "rpc/wire.h"

// Defines wire_fields(m, f) for Type: calls f with Type's fields, written as
// m.<field>, in wire order.
#define MAGMA_WIRE_FIELDS(Type, ...)                        \
  template <typename M, typename F>                         \
    requires std::same_as<std::remove_const_t<M>, Type>     \
  auto wire_fields([[maybe_unused]] M& m, F&& f) {          \
    return f(__VA_ARGS__);                                  \
  }                                                         \
  static_assert(std::is_class_v<Type>)

namespace magma::rpc {

namespace fields_detail {

template <typename T>
inline constexpr bool kIsByteArray = false;
template <std::size_t N>
inline constexpr bool kIsByteArray<std::array<std::uint8_t, N>> = true;

template <typename T>
inline constexpr bool kIsArray = false;
template <typename T, std::size_t N>
inline constexpr bool kIsArray<std::array<T, N>> = true;

template <typename T>
inline constexpr bool kIsVector = false;
template <typename T>
inline constexpr bool kIsVector<std::vector<T>> = true;

}  // namespace fields_detail

// Writes one value, for a caller composing a message of several.
template <typename T>
void put(Writer& w, const T& v) {
  if constexpr (std::is_enum_v<T>) {
    rpc::put(w, static_cast<std::underlying_type_t<T>>(v));
  } else if constexpr (std::is_same_v<T, bool>) {
    w.boolean(v);
  } else if constexpr (std::is_same_v<T, std::uint8_t>) {
    w.u8(v);
  } else if constexpr (std::is_same_v<T, std::uint16_t>) {
    w.u16(v);
  } else if constexpr (std::is_same_v<T, std::uint32_t>) {
    w.u32(v);
  } else if constexpr (std::is_same_v<T, std::uint64_t>) {
    w.u64(v);
  } else if constexpr (std::is_same_v<T, std::int64_t>) {
    w.i64(v);
  } else if constexpr (std::is_same_v<T, double>) {
    w.f64(v);
  } else if constexpr (std::is_same_v<T, std::string>) {
    w.str(v);
  } else if constexpr (std::is_same_v<T, common::Bytes> ||
                       fields_detail::kIsByteArray<T>) {
    w.bytes(common::BytesView(v.data(), v.size()));
  } else if constexpr (fields_detail::kIsVector<T>) {
    w.u64(v.size());
    for (const auto& element : v) rpc::put(w, element);
  } else if constexpr (fields_detail::kIsArray<T>) {
    static_assert(std::tuple_size_v<T> <= 0xff);
    w.u8(static_cast<std::uint8_t>(v.size()));
    for (const auto& element : v) rpc::put(w, element);
  } else if constexpr (std::is_same_v<T, common::Imsi>) {
    w.str(v.value);
  } else if constexpr (std::is_same_v<T, common::Ipv4>) {
    w.u32(v.addr);
  } else if constexpr (std::is_same_v<T, common::Teid> ||
                       std::is_same_v<T, common::RanNodeId>) {
    w.u32(v.value);
  } else {
    wire_fields(v, [&w](const auto&... field) { (rpc::put(w, field), ...); });
  }
}

namespace fields_detail {

// What a default T encodes to, a lower bound on every T's encoding: a wire
// count of T never reserves more than the bytes left could hold.
template <typename T>
std::size_t min_encoded_size() {
  static const std::size_t size = [] {
    Writer w;
    rpc::put(w, T{});
    return w.size();
  }();
  return size;
}

}  // namespace fields_detail

// Reads one value, for a caller decoding a message of several. False for a
// field the reader cannot flag itself: an array of the wrong length or an
// invalid IMSI. A short read latches !r.ok() instead.
template <typename T>
bool get(Reader& r, T& v) {
  if constexpr (std::is_enum_v<T>) {
    std::underlying_type_t<T> raw = 0;
    rpc::get(r, raw);
    v = static_cast<T>(raw);
  } else if constexpr (std::is_same_v<T, bool>) {
    v = r.boolean();
  } else if constexpr (std::is_same_v<T, std::uint8_t>) {
    v = r.u8();
  } else if constexpr (std::is_same_v<T, std::uint16_t>) {
    v = r.u16();
  } else if constexpr (std::is_same_v<T, std::uint32_t>) {
    v = r.u32();
  } else if constexpr (std::is_same_v<T, std::uint64_t>) {
    v = r.u64();
  } else if constexpr (std::is_same_v<T, std::int64_t>) {
    v = r.i64();
  } else if constexpr (std::is_same_v<T, double>) {
    v = r.f64();
  } else if constexpr (std::is_same_v<T, std::string>) {
    v = r.str();
  } else if constexpr (std::is_same_v<T, common::Bytes>) {
    v = r.bytes();
  } else if constexpr (fields_detail::kIsByteArray<T>) {
    const common::Bytes b = r.bytes();
    if (b.size() != v.size()) return false;
    std::copy(b.begin(), b.end(), v.begin());
  } else if constexpr (fields_detail::kIsVector<T>) {
    using Element = typename T::value_type;
    const std::uint64_t count = r.u64();
    v.clear();
    v.reserve(std::min<std::uint64_t>(
        count, r.remaining() / fields_detail::min_encoded_size<Element>()));
    for (std::uint64_t i = 0; i < count && r.ok(); ++i) {
      if (!rpc::get(r, v.emplace_back())) return false;
    }
  } else if constexpr (fields_detail::kIsArray<T>) {
    if (r.u8() != v.size()) return false;
    for (auto& element : v) {
      if (!rpc::get(r, element)) return false;
    }
  } else if constexpr (std::is_same_v<T, common::Imsi>) {
    v.value = r.str();
    return v.valid();
  } else if constexpr (std::is_same_v<T, common::Ipv4>) {
    v.addr = r.u32();
  } else if constexpr (std::is_same_v<T, common::Teid> ||
                       std::is_same_v<T, common::RanNodeId>) {
    v.value = r.u32();
  } else {
    return wire_fields(v, [&r](auto&... field) {
      return (rpc::get(r, field) && ...);
    });
  }
  return true;
}

// A record: its fields alone, with nothing allowed to follow them.
template <typename T>
common::Bytes encode_record(const T& record) {
  Writer w;
  rpc::put(w, record);
  return std::move(w).take();
}

template <typename T>
common::Result<T> decode_record(common::BytesView data, const char* error) {
  Reader r(data);
  T record;
  if (!rpc::get(r, record) || !r.ok() || !r.at_end()) {
    return common::Error{common::ErrorCode::kInvalidArgument, error};
  }
  return record;
}

// A variant of messages: a u8 tag, kFirstTag + the variant index, then the
// alternative's fields. Trailing bytes are accepted, as 3GPP framing leaves
// them to the transport.
template <typename Variant, std::uint8_t kFirstTag = 1>
struct MessageCodec {
  static common::Bytes encode(const Variant& msg) {
    Writer w;
    w.u8(static_cast<std::uint8_t>(kFirstTag + msg.index()));
    std::visit([&w](const auto& m) { rpc::put(w, m); }, msg);
    return std::move(w).take();
  }

  static common::Result<Variant> decode(common::BytesView data,
                                        const char* error) {
    constexpr std::size_t kTypes = std::variant_size_v<Variant>;
    Reader r(data);
    // A tag below kFirstTag wraps around to an out-of-range index.
    const std::size_t index = std::size_t{r.u8()} - kFirstTag;
    Variant msg;
    if (!r.ok() || index >= kTypes ||
        !get_alternative(r, index, msg, std::make_index_sequence<kTypes>{}) ||
        !r.ok()) {
      return common::Error{common::ErrorCode::kInvalidArgument, error};
    }
    return msg;
  }

 private:
  template <std::size_t... I>
  static bool get_alternative(Reader& r, std::size_t index, Variant& msg,
                              std::index_sequence<I...>) {
    return ((index == I && rpc::get(r, msg.template emplace<I>())) || ...);
  }
};

}  // namespace magma::rpc

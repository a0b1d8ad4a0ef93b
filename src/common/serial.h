// Byte-level serialization helpers + the shared numeric ingest policy.
//
// Everything the repo persists — segment files, WAL frames, manifests
// (src/storage/) — goes through these append/read helpers, which pack
// integers and Scalars little-endian byte by byte. That makes the on-disk
// formats endianness-independent by construction: a segment written on a
// big-endian host reads back identically everywhere, and there is exactly
// one place to audit for layout questions.
//
// The same header owns the ingest policy for attribute values: NaN and
// infinity are rejected at every boundary where records enter the system
// (CSV loaders in data/io.cc, SegmentWriter in storage/segment.cc). A NaN
// that slipped into a catalog would silently poison zonemap min/max
// metadata, dominance tests, and score comparisons; rejecting it with a
// clear error at ingest is the only cheap place to stop it.
#ifndef UTK_COMMON_SERIAL_H_
#define UTK_COMMON_SERIAL_H_

#include <cmath>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>

#include "common/types.h"

namespace utk {

// ------------------------------------------------------------- appenders
// All appenders write little-endian onto a std::string acting as a byte
// buffer (std::string keeps the call sites allocation-friendly and plays
// well with fwrite/compare in tests).

inline void AppendU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}

inline void AppendU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i)
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
}

inline void AppendU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i)
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
}

inline void AppendI32(std::string* out, int32_t v) {
  AppendU32(out, static_cast<uint32_t>(v));
}

inline void AppendI64(std::string* out, int64_t v) {
  AppendU64(out, static_cast<uint64_t>(v));
}

/// Scalars persist as their IEEE-754 bit pattern, little-endian. Exact
/// round-trip (including -0.0); NaN/Inf never reach this point for
/// attribute data — see the ingest policy below.
inline void AppendScalar(std::string* out, Scalar v) {
  static_assert(sizeof(Scalar) == 8, "Scalar must be a 64-bit IEEE double");
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  AppendU64(out, bits);
}

// --------------------------------------------------------------- readers
// Readers take (base, len, cursor): they bounds-check against `len`,
// advance `*cursor` on success, and return nullopt on a truncated buffer —
// the storage tier treats any short read as corruption, never as zeros.

inline std::optional<uint8_t> ReadU8(const char* base, size_t len,
                                     size_t* cursor) {
  if (*cursor + 1 > len) return std::nullopt;
  return static_cast<uint8_t>(base[(*cursor)++]);
}

inline std::optional<uint32_t> ReadU32(const char* base, size_t len,
                                       size_t* cursor) {
  if (*cursor + 4 > len) return std::nullopt;
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i)
    v |= static_cast<uint32_t>(static_cast<unsigned char>(base[*cursor + i]))
         << (8 * i);
  *cursor += 4;
  return v;
}

inline std::optional<uint64_t> ReadU64(const char* base, size_t len,
                                       size_t* cursor) {
  if (*cursor + 8 > len) return std::nullopt;
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i)
    v |= static_cast<uint64_t>(static_cast<unsigned char>(base[*cursor + i]))
         << (8 * i);
  *cursor += 8;
  return v;
}

inline std::optional<int32_t> ReadI32(const char* base, size_t len,
                                      size_t* cursor) {
  auto v = ReadU32(base, len, cursor);
  if (!v.has_value()) return std::nullopt;
  return static_cast<int32_t>(*v);
}

inline std::optional<int64_t> ReadI64(const char* base, size_t len,
                                      size_t* cursor) {
  auto v = ReadU64(base, len, cursor);
  if (!v.has_value()) return std::nullopt;
  return static_cast<int64_t>(*v);
}

inline std::optional<Scalar> ReadScalar(const char* base, size_t len,
                                        size_t* cursor) {
  auto bits = ReadU64(base, len, cursor);
  if (!bits.has_value()) return std::nullopt;
  Scalar v;
  std::memcpy(&v, &*bits, sizeof(v));
  return v;
}

// -------------------------------------------------- numeric ingest policy

/// True iff `v` is an ordinary finite value (rejects NaN and +/-Inf).
inline bool IsFiniteAttr(Scalar v) { return std::isfinite(v); }

/// Validates a whole attribute vector against the ingest policy. Returns
/// nullopt when every value is finite, otherwise a diagnostic naming the
/// first offending attribute — callers prepend their own row/record
/// context. Shared by the CSV loaders (data/io.cc), the segment writer
/// (storage/segment.cc), WAL replay (storage/wal.cc) and the engines'
/// dataset check (core/validate.cc NonFiniteAttribute), so every boundary
/// enforces the identical rule.
inline std::optional<std::string> CheckFiniteAttrs(const Vec& attrs) {
  for (size_t i = 0; i < attrs.size(); ++i) {
    if (!IsFiniteAttr(attrs[i]))
      return "attribute " + std::to_string(i) + " is not finite";
  }
  return std::nullopt;
}

}  // namespace utk

#endif  // UTK_COMMON_SERIAL_H_

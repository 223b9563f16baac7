// Derived-datatype engine: construction, commit, flattening, pack/unpack.
//
// Builtin types are fully described by their handle (size encoded in the
// handle bits), so the fast path never dereferences memory for them: the
// queries a send or a put asks (validity, contiguity, packed size) answer a
// builtin handle inline and call out of line only for a derived one. Derived
// types are flattened at commit time into a sorted, merged list of
// (offset, length) byte segments per element extent; pack/unpack and the
// noncontiguous RMA/AM fallback walk that list.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace lwmpi::dt {

struct Segment {
  std::int64_t offset = 0;  // byte offset from element base
  std::size_t length = 0;   // contiguous run length in bytes
  friend bool operator==(const Segment&, const Segment&) = default;
};

struct TypeInfo {
  std::size_t size = 0;      // bytes of actual data per element
  std::int64_t lb = 0;       // lowest byte offset touched
  std::int64_t extent = 0;   // ub - lb; spacing between consecutive elements
  bool contiguous = true;    // one segment at offset 0 with length == extent
  bool committed = false;
  std::vector<Segment> segments;  // sorted by offset, adjacent runs merged
};

class TypeEngine {
 public:
  TypeEngine();

  // --- constructors (types start uncommitted) ---
  Err contiguous(int count, Datatype oldtype, Datatype* newtype);
  Err vector(int count, int blocklength, int stride, Datatype oldtype, Datatype* newtype);
  Err indexed(std::span<const int> blocklengths, std::span<const int> displacements,
              Datatype oldtype, Datatype* newtype);
  // displacements in bytes, one (possibly different) type per block.
  Err create_struct(std::span<const int> blocklengths,
                    std::span<const std::int64_t> displacements,
                    std::span<const Datatype> types, Datatype* newtype);
  // Heterogeneous variants: strides/displacements in *bytes* rather than
  // multiples of the old type's extent (MPI_TYPE_CREATE_HVECTOR / HINDEXED).
  Err hvector(int count, int blocklength, std::int64_t stride_bytes, Datatype oldtype,
              Datatype* newtype);
  Err hindexed(std::span<const int> blocklengths,
               std::span<const std::int64_t> displacements_bytes, Datatype oldtype,
               Datatype* newtype);
  // Override lb/extent (MPI_TYPE_CREATE_RESIZED): controls element spacing
  // without changing the data layout.
  Err create_resized(Datatype oldtype, std::int64_t lb, std::int64_t extent,
                     Datatype* newtype);
  // Independent copy of a (possibly derived) type (MPI_TYPE_DUP).
  Err dup(Datatype oldtype, Datatype* newtype);

  Err commit(Datatype* d);
  Err free_type(Datatype* d);

  // --- queries ---
  bool valid(Datatype d) const noexcept;
  bool committed_or_builtin(Datatype d) const noexcept {
    if (is_builtin(d)) [[likely]] return builtin_valid(d);
    const TypeInfo* i = info(d);
    return i != nullptr && i->committed;
  }
  Err get_size(Datatype d, std::size_t* size) const noexcept;
  Err get_extent(Datatype d, std::int64_t* lb, std::int64_t* extent) const noexcept;
  bool is_contiguous(Datatype d) const noexcept {
    if (is_builtin(d)) [[likely]] return builtin_valid(d);
    const TypeInfo* i = info(d);
    return i != nullptr && i->contiguous;
  }
  // A builtin handle names a type iff its id is one of the table's; every
  // builtin type is committed and contiguous.
  static constexpr bool builtin_valid(Datatype d) noexcept {
    return builtin_id(d) != 0 && builtin_id(d) < kNumBuiltinTypes;
  }

  // Full flattened description; nullptr for invalid handles. For builtin
  // handles this returns a pointer into a static table.
  const TypeInfo* info(Datatype d) const noexcept;

  std::size_t num_derived_live() const noexcept { return live_derived_; }

 private:
  Err register_type(TypeInfo info, Datatype* out);
  const TypeInfo* derived_info(Datatype d) const noexcept;

  std::vector<std::optional<TypeInfo>> derived_;
  std::vector<std::uint32_t> free_slots_;
  std::size_t live_derived_ = 0;
};

// Total packed (contiguous) byte size of `count` elements of `d`; 0 for an
// invalid handle.
inline std::size_t packed_size(const TypeEngine& eng, int count, Datatype d) noexcept {
  if (count <= 0) return 0;
  if (is_builtin(d)) [[likely]] {
    return TypeEngine::builtin_valid(d) ? static_cast<std::size_t>(count) * builtin_size(d) : 0;
  }
  const TypeInfo* i = eng.info(d);
  return i == nullptr ? 0 : static_cast<std::size_t>(count) * i->size;
}

// The bytes [lo, hi) that `count` elements of `info` touch, as offsets from
// the buffer address: its segments, repeated every extent, so a gap or a
// segment below the address counts. Empty for count <= 0; nullopt when the
// range does not fit in 64 bits.
std::optional<std::pair<std::int64_t, std::int64_t>> touched(const TypeInfo& info,
                                                             int count) noexcept;

// Gather `count` elements of type `d` at `src` into the contiguous buffer
// `dst` (which must hold packed_size bytes). Returns bytes written.
std::size_t pack(const TypeEngine& eng, const void* src, int count, Datatype d,
                 std::byte* dst) noexcept;

// Scatter `n` contiguous bytes at `src` into `count` elements of type `d` at
// `dst`. Stops after `n` bytes (partial fill allowed). Returns bytes consumed.
std::size_t unpack(const TypeEngine& eng, const std::byte* src, std::size_t n, void* dst,
                   int count, Datatype d) noexcept;

// Pack/unpack against an explicit flattened description (used when the
// description was shipped over the wire rather than registered locally).
std::size_t pack_info(const TypeInfo& info, const void* src, int count, std::byte* dst) noexcept;
std::size_t unpack_info(const TypeInfo& info, const std::byte* src, std::size_t n, void* dst,
                        int count) noexcept;

// Wire form of a flattened datatype, so RMA active messages can describe the
// target-side layout of an origin-local derived type. Builtin handles are
// globally meaningful and never need this.
std::vector<std::byte> serialize_info(const TypeInfo& info);
// Returns the deserialized description and the number of bytes consumed, or
// nullopt on a malformed blob.
std::optional<std::pair<TypeInfo, std::size_t>> deserialize_info(
    std::span<const std::byte> blob);

}  // namespace lwmpi::dt

#include "datatype/datatype.hpp"

#include <algorithm>
#include <array>
#include <cstring>

namespace lwmpi::dt {
namespace {

// Static descriptions for builtin types, indexed by builtin id.
const TypeInfo* builtin_info_table(std::uint32_t id) {
  static const std::array<TypeInfo, kNumBuiltinTypes> table = [] {
    std::array<TypeInfo, kNumBuiltinTypes> t{};
    const std::array<std::size_t, kNumBuiltinTypes> sizes = {
        0, 1, 1, 1, 1, 2, 2, 4, 4, 8, 8, 8, 8, 4, 8, 1, 2, 4, 8, 1, 2, 4, 8};
    for (std::uint32_t i = 1; i < kNumBuiltinTypes; ++i) {
      t[i].size = sizes[i];
      t[i].lb = 0;
      t[i].extent = static_cast<std::int64_t>(sizes[i]);
      t[i].contiguous = true;
      t[i].committed = true;
      t[i].segments = {Segment{0, sizes[i]}};
    }
    return t;
  }();
  if (id == 0 || id >= kNumBuiltinTypes) return nullptr;
  return &table[id];
}

// Merge sorted segments that touch.
void merge_segments(std::vector<Segment>& segs) {
  if (segs.empty()) return;
  std::sort(segs.begin(), segs.end(),
            [](const Segment& a, const Segment& b) { return a.offset < b.offset; });
  std::vector<Segment> out;
  out.reserve(segs.size());
  out.push_back(segs.front());
  for (std::size_t i = 1; i < segs.size(); ++i) {
    Segment& last = out.back();
    const Segment& cur = segs[i];
    if (cur.offset == last.offset + static_cast<std::int64_t>(last.length)) {
      last.length += cur.length;
    } else {
      out.push_back(cur);
    }
  }
  segs = std::move(out);
}

void finalize(TypeInfo& info) {
  merge_segments(info.segments);
  std::size_t size = 0;
  std::int64_t lb = 0;
  std::int64_t ub = 0;
  if (!info.segments.empty()) {
    lb = info.segments.front().offset;
    ub = lb;
    for (const Segment& s : info.segments) {
      size += s.length;
      ub = std::max(ub, s.offset + static_cast<std::int64_t>(s.length));
    }
  }
  info.size = size;
  info.lb = lb;
  info.extent = ub - lb;
  info.contiguous = info.segments.size() == 1 && info.segments.front().offset == 0 &&
                    static_cast<std::int64_t>(info.segments.front().length) == info.extent;
}

// Replicate oldinfo's segments at byte displacement `disp`, `blocklen` times
// spaced by oldinfo.extent.
void append_block(std::vector<Segment>& segs, const TypeInfo& oldinfo, std::int64_t disp,
                  int blocklen) {
  for (int j = 0; j < blocklen; ++j) {
    const std::int64_t base = disp + static_cast<std::int64_t>(j) * oldinfo.extent;
    for (const Segment& s : oldinfo.segments) {
      segs.push_back(Segment{base + s.offset, s.length});
    }
  }
}

}  // namespace

TypeEngine::TypeEngine() = default;

const TypeInfo* TypeEngine::derived_info(Datatype d) const noexcept {
  const std::uint32_t idx = handle_payload(d);
  if (idx >= derived_.size() || !derived_[idx].has_value()) return nullptr;
  return &*derived_[idx];
}

const TypeInfo* TypeEngine::info(Datatype d) const noexcept {
  switch (handle_kind(d)) {
    case HandleKind::BuiltinDatatype: return builtin_info_table(builtin_id(d));
    case HandleKind::DerivedDatatype: return derived_info(d);
    default: return nullptr;
  }
}

bool TypeEngine::valid(Datatype d) const noexcept { return info(d) != nullptr; }

Err TypeEngine::get_size(Datatype d, std::size_t* size) const noexcept {
  const TypeInfo* i = info(d);
  if (i == nullptr) return Err::Datatype;
  *size = i->size;
  return Err::Success;
}

Err TypeEngine::get_extent(Datatype d, std::int64_t* lb, std::int64_t* extent) const noexcept {
  const TypeInfo* i = info(d);
  if (i == nullptr) return Err::Datatype;
  *lb = i->lb;
  *extent = i->extent;
  return Err::Success;
}

Err TypeEngine::register_type(TypeInfo info, Datatype* out) {
  std::uint32_t idx;
  if (!free_slots_.empty()) {
    idx = free_slots_.back();
    free_slots_.pop_back();
    derived_[idx] = std::move(info);
  } else {
    idx = static_cast<std::uint32_t>(derived_.size());
    derived_.push_back(std::move(info));
  }
  ++live_derived_;
  *out = make_handle(HandleKind::DerivedDatatype, idx);
  return Err::Success;
}

Err TypeEngine::contiguous(int count, Datatype oldtype, Datatype* newtype) {
  if (count < 0 || newtype == nullptr) return Err::Count;
  const TypeInfo* old = info(oldtype);
  if (old == nullptr) return Err::Datatype;
  TypeInfo t;
  append_block(t.segments, *old, 0, count);
  finalize(t);
  return register_type(std::move(t), newtype);
}

Err TypeEngine::vector(int count, int blocklength, int stride, Datatype oldtype,
                       Datatype* newtype) {
  if (count < 0 || blocklength < 0 || newtype == nullptr) return Err::Count;
  const TypeInfo* old = info(oldtype);
  if (old == nullptr) return Err::Datatype;
  TypeInfo t;
  for (int i = 0; i < count; ++i) {
    const std::int64_t disp = static_cast<std::int64_t>(i) * stride * old->extent;
    append_block(t.segments, *old, disp, blocklength);
  }
  finalize(t);
  return register_type(std::move(t), newtype);
}

Err TypeEngine::indexed(std::span<const int> blocklengths, std::span<const int> displacements,
                        Datatype oldtype, Datatype* newtype) {
  if (blocklengths.size() != displacements.size() || newtype == nullptr) return Err::Arg;
  const TypeInfo* old = info(oldtype);
  if (old == nullptr) return Err::Datatype;
  for (int b : blocklengths) {
    if (b < 0) return Err::Count;
  }
  TypeInfo t;
  for (std::size_t i = 0; i < blocklengths.size(); ++i) {
    const std::int64_t disp = static_cast<std::int64_t>(displacements[i]) * old->extent;
    append_block(t.segments, *old, disp, blocklengths[i]);
  }
  finalize(t);
  return register_type(std::move(t), newtype);
}

Err TypeEngine::create_struct(std::span<const int> blocklengths,
                              std::span<const std::int64_t> displacements,
                              std::span<const Datatype> types, Datatype* newtype) {
  if (blocklengths.size() != displacements.size() || blocklengths.size() != types.size() ||
      newtype == nullptr) {
    return Err::Arg;
  }
  TypeInfo t;
  for (std::size_t i = 0; i < blocklengths.size(); ++i) {
    if (blocklengths[i] < 0) return Err::Count;
    const TypeInfo* old = info(types[i]);
    if (old == nullptr) return Err::Datatype;
    append_block(t.segments, *old, displacements[i], blocklengths[i]);
  }
  finalize(t);
  return register_type(std::move(t), newtype);
}

Err TypeEngine::hvector(int count, int blocklength, std::int64_t stride_bytes,
                        Datatype oldtype, Datatype* newtype) {
  if (count < 0 || blocklength < 0 || newtype == nullptr) return Err::Count;
  const TypeInfo* old = info(oldtype);
  if (old == nullptr) return Err::Datatype;
  TypeInfo t;
  for (int i = 0; i < count; ++i) {
    append_block(t.segments, *old, static_cast<std::int64_t>(i) * stride_bytes, blocklength);
  }
  finalize(t);
  return register_type(std::move(t), newtype);
}

Err TypeEngine::hindexed(std::span<const int> blocklengths,
                         std::span<const std::int64_t> displacements_bytes, Datatype oldtype,
                         Datatype* newtype) {
  if (blocklengths.size() != displacements_bytes.size() || newtype == nullptr) {
    return Err::Arg;
  }
  const TypeInfo* old = info(oldtype);
  if (old == nullptr) return Err::Datatype;
  TypeInfo t;
  for (std::size_t i = 0; i < blocklengths.size(); ++i) {
    if (blocklengths[i] < 0) return Err::Count;
    append_block(t.segments, *old, displacements_bytes[i], blocklengths[i]);
  }
  finalize(t);
  return register_type(std::move(t), newtype);
}

Err TypeEngine::create_resized(Datatype oldtype, std::int64_t lb, std::int64_t extent,
                               Datatype* newtype) {
  if (newtype == nullptr) return Err::Arg;
  if (extent < 0) return Err::Arg;
  const TypeInfo* old = info(oldtype);
  if (old == nullptr) return Err::Datatype;
  TypeInfo t = *old;
  t.committed = false;
  t.lb = lb;
  t.extent = extent;
  t.contiguous = t.segments.size() == 1 && t.segments.front().offset == 0 &&
                 static_cast<std::int64_t>(t.segments.front().length) == t.extent;
  return register_type(std::move(t), newtype);
}

Err TypeEngine::dup(Datatype oldtype, Datatype* newtype) {
  if (newtype == nullptr) return Err::Arg;
  const TypeInfo* old = info(oldtype);
  if (old == nullptr) return Err::Datatype;
  TypeInfo t = *old;  // committed state carries over, as MPI_TYPE_DUP requires
  return register_type(std::move(t), newtype);
}

Err TypeEngine::commit(Datatype* d) {
  if (d == nullptr) return Err::Datatype;
  if (is_builtin(*d)) return Err::Success;  // builtins are pre-committed
  const std::uint32_t idx = handle_payload(*d);
  if (handle_kind(*d) != HandleKind::DerivedDatatype || idx >= derived_.size() ||
      !derived_[idx].has_value()) {
    return Err::Datatype;
  }
  derived_[idx]->committed = true;
  return Err::Success;
}

Err TypeEngine::free_type(Datatype* d) {
  if (d == nullptr) return Err::Datatype;
  if (is_builtin(*d)) return Err::Datatype;  // cannot free builtins
  const std::uint32_t idx = handle_payload(*d);
  if (handle_kind(*d) != HandleKind::DerivedDatatype || idx >= derived_.size() ||
      !derived_[idx].has_value()) {
    return Err::Datatype;
  }
  derived_[idx].reset();
  free_slots_.push_back(idx);
  --live_derived_;
  *d = kDatatypeNull;
  return Err::Success;
}

std::optional<std::pair<std::int64_t, std::int64_t>> touched(const TypeInfo& info,
                                                             int count) noexcept {
  if (count <= 0 || info.segments.empty()) return std::pair<std::int64_t, std::int64_t>{0, 0};
  std::int64_t lo = info.segments.front().offset;  // sorted by offset
  std::int64_t hi = lo;
  for (const Segment& s : info.segments) {
    std::int64_t end = 0;
    if (__builtin_add_overflow(s.offset, static_cast<std::int64_t>(s.length), &end)) {
      return std::nullopt;
    }
    hi = std::max(hi, end);
  }
  std::int64_t step = 0;  // the last element's base
  if (__builtin_mul_overflow(static_cast<std::int64_t>(count - 1), info.extent, &step)) {
    return std::nullopt;
  }
  std::int64_t& edge = step < 0 ? lo : hi;
  if (__builtin_add_overflow(edge, step, &edge)) return std::nullopt;
  return std::pair{lo, hi};
}

std::size_t pack_info(const TypeInfo& info, const void* src, int count,
                      std::byte* dst) noexcept {
  if (count <= 0) return 0;
  const auto* base = static_cast<const std::byte*>(src);
  if (info.contiguous) {
    const std::size_t n = static_cast<std::size_t>(count) * info.size;
    std::memcpy(dst, base, n);
    return n;
  }
  std::size_t written = 0;
  for (int e = 0; e < count; ++e) {
    const std::byte* elem = base + static_cast<std::int64_t>(e) * info.extent;
    for (const Segment& s : info.segments) {
      std::memcpy(dst + written, elem + s.offset, s.length);
      written += s.length;
    }
  }
  return written;
}

std::size_t unpack_info(const TypeInfo& info, const std::byte* src, std::size_t n, void* dst,
                        int count) noexcept {
  if (count <= 0) return 0;
  auto* base = static_cast<std::byte*>(dst);
  if (info.contiguous) {
    const std::size_t want = static_cast<std::size_t>(count) * info.size;
    const std::size_t take = std::min(n, want);
    std::memcpy(base, src, take);
    return take;
  }
  std::size_t consumed = 0;
  for (int e = 0; e < count && consumed < n; ++e) {
    std::byte* elem = base + static_cast<std::int64_t>(e) * info.extent;
    for (const Segment& s : info.segments) {
      if (consumed >= n) break;
      const std::size_t take = std::min(s.length, n - consumed);
      std::memcpy(elem + s.offset, src + consumed, take);
      consumed += take;
    }
  }
  return consumed;
}

std::size_t pack(const TypeEngine& eng, const void* src, int count, Datatype d,
                 std::byte* dst) noexcept {
  const TypeInfo* i = eng.info(d);
  return i == nullptr ? 0 : pack_info(*i, src, count, dst);
}

std::size_t unpack(const TypeEngine& eng, const std::byte* src, std::size_t n, void* dst,
                   int count, Datatype d) noexcept {
  const TypeInfo* i = eng.info(d);
  return i == nullptr ? 0 : unpack_info(*i, src, n, dst, count);
}

// ---------------------------------------------------------------------------
// Wire form: [size u64][lb i64][extent i64][contig u8][nsegs u32]
//            then per segment [offset i64][length u64].
// ---------------------------------------------------------------------------

namespace {
template <typename T>
void put_scalar(std::vector<std::byte>& out, T v) {
  const auto* p = reinterpret_cast<const std::byte*>(&v);
  out.insert(out.end(), p, p + sizeof(T));
}
template <typename T>
bool get_scalar(std::span<const std::byte> in, std::size_t& pos, T& v) {
  if (pos + sizeof(T) > in.size()) return false;
  std::memcpy(&v, in.data() + pos, sizeof(T));
  pos += sizeof(T);
  return true;
}
}  // namespace

std::vector<std::byte> serialize_info(const TypeInfo& info) {
  std::vector<std::byte> out;
  out.reserve(29 + info.segments.size() * 16);
  put_scalar<std::uint64_t>(out, info.size);
  put_scalar<std::int64_t>(out, info.lb);
  put_scalar<std::int64_t>(out, info.extent);
  put_scalar<std::uint8_t>(out, info.contiguous ? 1 : 0);
  put_scalar<std::uint32_t>(out, static_cast<std::uint32_t>(info.segments.size()));
  for (const Segment& s : info.segments) {
    put_scalar<std::int64_t>(out, s.offset);
    put_scalar<std::uint64_t>(out, s.length);
  }
  return out;
}

std::optional<std::pair<TypeInfo, std::size_t>> deserialize_info(
    std::span<const std::byte> blob) {
  TypeInfo info;
  std::size_t pos = 0;
  std::uint64_t size = 0;
  std::uint8_t contig = 0;
  std::uint32_t nsegs = 0;
  if (!get_scalar(blob, pos, size)) return std::nullopt;
  if (!get_scalar(blob, pos, info.lb)) return std::nullopt;
  if (!get_scalar(blob, pos, info.extent)) return std::nullopt;
  if (!get_scalar(blob, pos, contig)) return std::nullopt;
  if (!get_scalar(blob, pos, nsegs)) return std::nullopt;
  info.size = size;
  info.contiguous = contig != 0;
  info.committed = true;
  info.segments.reserve(nsegs);
  for (std::uint32_t i = 0; i < nsegs; ++i) {
    Segment s;
    std::uint64_t len = 0;
    if (!get_scalar(blob, pos, s.offset)) return std::nullopt;
    if (!get_scalar(blob, pos, len)) return std::nullopt;
    s.length = len;
    info.segments.push_back(s);
  }
  return std::make_pair(std::move(info), pos);
}

}  // namespace lwmpi::dt

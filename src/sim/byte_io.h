// Little-endian byte serialization for durable machine checkpoints.
//
// ByteWriter appends fixed-width scalars to a growable buffer; ByteReader
// consumes them with a sticky failure flag instead of per-call error
// returns. The checkpoint loader verifies a per-section CRC32 before it
// parses, so a reader only fails on content from a different format
// version or content crafted to pass the CRC — callers check ok() once per
// section and reject the whole file, never a partial restore.
//
// Encodings are explicit shifts, not memcpy of host structs: the file must
// mean the same bytes on any host, and no padding or struct layout may
// leak into the format.
//
// Field lists. A struct joins the format by listing its fields once, in
// on-disk order, as a static member template:
//
//   template <class S, class V>
//   static constexpr void VisitFields(S& s, V&& v) {
//     v("s0", s.s0);
//     v("s1", s.s1);
//   }
//
// S is the struct or its const form, so the one list serves the writer
// (ByteWriter::Put), the reader (ByteReader::Get) and any other walk by
// field name, such as metric binding; constexpr lets kMinBytes walk it at
// compile time. A field is checkpointed if and only if it is in its
// struct's list. Put and Get take each field's encoding from its C++ type:
//
//   bool                              Bool
//   uint8_t, and enums based on it    U8; Get rejects a value past the
//                                     enum's LastEnumerator (found by ADL)
//   uint32_t                          U32
//   uint64_t                          U64
//   signed integers                   I64
//   double                            F64
//   std::string                       Str
//   std::vector, std::deque           U64 count, then the elements
//   std::array                        the elements
//   a struct with VisitFields         its fields, in list order
//   anything else                     Codec<T>
//
// A struct whose fields can decode to a state the program never makes (one
// field naming what another lacks) also declares `bool Consistent() const`;
// Get fails the reader when a decoded struct returns false.
#ifndef SRC_SIM_BYTE_IO_H_
#define SRC_SIM_BYTE_IO_H_

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <deque>
#include <string>
#include <type_traits>
#include <vector>

namespace graysim {

// The encoding of a type that is not a field list (its bytes are not its
// fields, or it owns a layout the format must keep exactly). A
// specialization provides
//   static void Put(ByteWriter& w, const T& v);
//   static void Get(ByteReader& r, T& v);  // fails `r` on bad input
//   static constexpr std::size_t kMinBytes;  // fewest bytes one T encodes to
// and must be declared before the first Put or Get of a T.
template <class T>
struct Codec;

namespace byte_io_internal {

template <class T>
struct IsSequence : std::false_type {};
template <class E, class A>
struct IsSequence<std::vector<E, A>> : std::true_type {};
template <class E, class A>
struct IsSequence<std::deque<E, A>> : std::true_type {};

template <class T>
struct IsArray : std::false_type {};
template <class E, std::size_t N>
struct IsArray<std::array<E, N>> : std::true_type {};

struct AnyField {
  template <class F>
  void operator()(const char* /*name*/, F& /*field*/) const {}
};

template <class T>
concept HasFields = requires(T& t) { T::VisitFields(t, AnyField{}); };

template <class T>
constexpr std::size_t MinBytesOf() {
  if constexpr (std::is_same_v<T, bool> || std::is_same_v<T, std::uint8_t> ||
                std::is_enum_v<T>) {
    return 1;
  } else if constexpr (std::is_same_v<T, std::uint32_t>) {
    return 4;
  } else if constexpr (std::is_arithmetic_v<T>) {
    return 8;  // U64, I64 or F64
  } else if constexpr (std::is_same_v<T, std::string> || IsSequence<T>::value) {
    return 8;  // the count
  } else if constexpr (IsArray<T>::value) {
    return std::tuple_size_v<T> * MinBytesOf<typename T::value_type>();
  } else if constexpr (HasFields<T>) {
    T t{};
    std::size_t n = 0;
    T::VisitFields(t, [&n](const char*, const auto& f) {
      n += MinBytesOf<std::remove_cvref_t<decltype(f)>>();
    });
    return n;
  } else {
    return Codec<T>::kMinBytes;
  }
}

// Little-endian loads and stores spelled out byte by byte, not as a loop:
// compilers fuse the unrolled form into one memory access (plus a byte
// swap on big-endian hosts), and do not fuse the loop at -O2.
inline void StoreLe32(std::uint8_t* d, std::uint32_t v) {
  d[0] = static_cast<std::uint8_t>(v);
  d[1] = static_cast<std::uint8_t>(v >> 8);
  d[2] = static_cast<std::uint8_t>(v >> 16);
  d[3] = static_cast<std::uint8_t>(v >> 24);
}

inline void StoreLe64(std::uint8_t* d, std::uint64_t v) {
  StoreLe32(d, static_cast<std::uint32_t>(v));
  StoreLe32(d + 4, static_cast<std::uint32_t>(v >> 32));
}

inline std::uint32_t LoadLe32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) | static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 | static_cast<std::uint32_t>(p[3]) << 24;
}

inline std::uint64_t LoadLe64(const std::uint8_t* p) {
  return static_cast<std::uint64_t>(LoadLe32(p)) |
         static_cast<std::uint64_t>(LoadLe32(p + 4)) << 32;
}

}  // namespace byte_io_internal

class ByteWriter {
 public:
  // Starts with room for `capacity` bytes, so a writer that knows roughly
  // how much it will write skips the doublings from empty. A writer never
  // starts with none: GCC 12 misreads a first range insert into an empty
  // vector as an overflow (see EncodeMachineImage).
  explicit ByteWriter(std::size_t capacity = 64) { buf_.reserve(capacity); }

  void U8(std::uint8_t v) { buf_.push_back(v); }

  // Each scalar is one range insert: a single capacity check and copy,
  // never a resize followed by stores into the grown tail.
  void U32(std::uint32_t v) {
    std::uint8_t b[4];
    byte_io_internal::StoreLe32(b, v);
    buf_.insert(buf_.end(), b, b + 4);
  }

  void U64(std::uint64_t v) {
    std::uint8_t b[8];
    byte_io_internal::StoreLe64(b, v);
    buf_.insert(buf_.end(), b, b + 8);
  }

  void I64(std::int64_t v) { U64(static_cast<std::uint64_t>(v)); }
  void Bool(bool v) { U8(v ? 1 : 0); }

  void F64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    U64(bits);
  }

  void Str(const std::string& s) {
    U64(s.size());
    buf_.insert(buf_.end(), s.begin(), s.end());
  }

  void Bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const std::uint8_t*>(p);
    buf_.insert(buf_.end(), b, b + n);
  }

  // U64 for each of `n` values, encoded a stack-sized chunk at a time so a
  // long array costs one append per chunk rather than one per value.
  void U64s(const std::uint64_t* v, std::size_t n) {
    constexpr std::size_t kChunk = 64;
    std::uint8_t b[8 * kChunk];
    while (n > 0) {
      const std::size_t k = std::min(n, kChunk);
      for (std::size_t i = 0; i < k; ++i) {
        byte_io_internal::StoreLe64(b + 8 * i, v[i]);
      }
      buf_.insert(buf_.end(), b, b + 8 * k);
      v += k;
      n -= k;
    }
  }

  // `n` copies of byte `v` in one append.
  void Fill(std::uint8_t v, std::size_t n) { buf_.insert(buf_.end(), n, v); }

  // Overwrite a field written earlier (a length or checksum that is only
  // known once the bytes behind it exist). `at` + width must be <= size().
  void PatchU32(std::size_t at, std::uint32_t v) {
    byte_io_internal::StoreLe32(buf_.data() + at, v);
  }

  void PatchU64(std::size_t at, std::uint64_t v) {
    byte_io_internal::StoreLe64(buf_.data() + at, v);
  }

  // Any value with an encoding: a scalar, container, field list or Codec.
  template <class T>
  void Put(const T& v);

  [[nodiscard]] std::size_t size() const { return buf_.size(); }
  [[nodiscard]] const std::vector<std::uint8_t>& data() const { return buf_; }
  [[nodiscard]] std::vector<std::uint8_t> Take() { return std::move(buf_); }

 private:
  std::vector<std::uint8_t> buf_;
};

class ByteReader {
 public:
  ByteReader(const std::uint8_t* data, std::size_t size) : p_(data), end_(data + size) {}

  [[nodiscard]] std::uint8_t U8() {
    if (!Need(1)) {
      return 0;
    }
    return *p_++;
  }

  [[nodiscard]] std::uint32_t U32() {
    if (!Need(4)) {
      return 0;
    }
    const std::uint32_t v = byte_io_internal::LoadLe32(p_);
    p_ += 4;
    return v;
  }

  [[nodiscard]] std::uint64_t U64() {
    if (!Need(8)) {
      return 0;
    }
    const std::uint64_t v = byte_io_internal::LoadLe64(p_);
    p_ += 8;
    return v;
  }

  // `n` values written by ByteWriter::U64s (or n U64 calls), with one bounds
  // check. On short input fails and leaves `out` unwritten.
  [[nodiscard]] bool U64s(std::uint64_t* out, std::size_t n) {
    if (failed_ || n > remaining() / 8) {
      failed_ = true;
      return false;
    }
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = byte_io_internal::LoadLe64(p_ + 8 * i);
    }
    p_ += 8 * n;
    return true;
  }

  [[nodiscard]] std::int64_t I64() { return static_cast<std::int64_t>(U64()); }
  [[nodiscard]] bool Bool() { return U8() != 0; }

  [[nodiscard]] double F64() {
    const std::uint64_t bits = U64();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }

  [[nodiscard]] std::string Str() {
    const std::uint64_t n = Count(1);
    std::string s;
    if (failed_) {
      return s;
    }
    s.assign(reinterpret_cast<const char*>(p_), static_cast<std::size_t>(n));
    p_ += n;
    return s;
  }

  [[nodiscard]] bool Bytes(void* out, std::size_t n) {
    const std::uint8_t* src = Take(n);
    if (src == nullptr) {
      return false;
    }
    std::memcpy(out, src, n);
    return true;
  }

  // Consumes `n` bytes and returns where they start, or null (and fails)
  // when fewer than `n` remain. The bytes stay owned by the caller's buffer.
  [[nodiscard]] const std::uint8_t* Take(std::size_t n) {
    if (!Need(n)) {
      return nullptr;
    }
    const std::uint8_t* at = p_;
    p_ += n;
    return at;
  }

  // Consumes the run of zero bytes at the read position, at most `max` of
  // them, and returns how many it consumed. Steps eight bytes at a time: a
  // nonzero word's lowest set bit names the run's first nonzero byte, since
  // the word is loaded little-endian.
  [[nodiscard]] std::size_t SkipZeros(std::size_t max) {
    const std::uint8_t* stop = p_ + std::min(max, remaining());
    const std::uint8_t* start = p_;
    for (; stop - p_ >= 8; p_ += 8) {
      if (const std::uint64_t word = byte_io_internal::LoadLe64(p_); word != 0) {
        p_ += std::countr_zero(word) / 8;
        return static_cast<std::size_t>(p_ - start);
      }
    }
    while (p_ != stop && *p_ == 0) {
      ++p_;
    }
    return static_cast<std::size_t>(p_ - start);
  }

  // Reads an element count whose elements occupy at least `min_elem_bytes`
  // each; fails (rather than letting a caller resize a vector to a bogus
  // size) when the remaining input cannot possibly hold that many.
  [[nodiscard]] std::uint64_t Count(std::size_t min_elem_bytes) {
    const std::uint64_t n = U64();
    if (failed_) {
      return 0;
    }
    const std::uint64_t avail = static_cast<std::uint64_t>(end_ - p_);
    if (min_elem_bytes != 0 && n > avail / min_elem_bytes) {
      failed_ = true;
      return 0;
    }
    return n;
  }

  // Reads what ByteWriter::Put wrote for a value of v's type into `v`. On
  // bad input fails the reader and may leave `v` partly read.
  template <class T>
  void Get(T& v);

  // Marks the input bad: content that parsed but cannot be right.
  void Fail() { failed_ = true; }

  [[nodiscard]] bool ok() const { return !failed_; }
  [[nodiscard]] std::size_t remaining() const { return static_cast<std::size_t>(end_ - p_); }
  // A fully-consumed, error-free read: the shape of a successful section.
  [[nodiscard]] bool Done() const { return !failed_ && p_ == end_; }

 private:
  [[nodiscard]] bool Need(std::size_t n) {
    if (failed_ || static_cast<std::size_t>(end_ - p_) < n) {
      failed_ = true;
      return false;
    }
    return true;
  }

  const std::uint8_t* p_;
  const std::uint8_t* end_;
  bool failed_ = false;
};

// The fewest bytes one encoded T can take. A reader bounds every element
// count by the bytes left over this, so a corrupt count cannot size a
// container past what the input could hold. Computed at compile time for
// types that can be built in a constant expression, before main otherwise.
template <class T>
inline const std::size_t kMinBytes = byte_io_internal::MinBytesOf<T>();

// Visitors that write, or read, every field of a list in order.
struct FieldWriter {
  ByteWriter& w;
  template <class F>
  void operator()(const char* /*name*/, const F& f) const {
    w.Put(f);
  }
};

struct FieldReader {
  ByteReader& r;
  template <class F>
  void operator()(const char* /*name*/, F& f) const {
    r.Get(f);
  }
};

template <class T>
void ByteWriter::Put(const T& v) {
  if constexpr (std::is_enum_v<T>) {
    static_assert(std::is_same_v<std::underlying_type_t<T>, std::uint8_t>);
    U8(static_cast<std::uint8_t>(v));
  } else if constexpr (std::is_same_v<T, bool>) {
    Bool(v);
  } else if constexpr (std::is_same_v<T, std::uint8_t>) {
    U8(v);
  } else if constexpr (std::is_same_v<T, std::uint32_t>) {
    U32(v);
  } else if constexpr (std::is_same_v<T, std::uint64_t>) {
    U64(v);
  } else if constexpr (std::is_integral_v<T> && std::is_signed_v<T>) {
    I64(v);
  } else if constexpr (std::is_same_v<T, double>) {
    F64(v);
  } else if constexpr (std::is_same_v<T, std::string>) {
    Str(v);
  } else if constexpr (byte_io_internal::IsSequence<T>::value) {
    U64(v.size());
    for (const auto& e : v) {
      Put(e);
    }
  } else if constexpr (byte_io_internal::IsArray<T>::value) {
    for (const auto& e : v) {
      Put(e);
    }
  } else if constexpr (byte_io_internal::HasFields<T>) {
    T::VisitFields(v, FieldWriter{*this});
  } else {
    Codec<T>::Put(*this, v);
  }
}

template <class T>
void ByteReader::Get(T& v) {
  if constexpr (std::is_enum_v<T>) {
    const std::uint8_t raw = U8();
    if (raw > static_cast<std::uint8_t>(LastEnumerator(T{}))) {
      failed_ = true;
    } else {
      v = static_cast<T>(raw);
    }
  } else if constexpr (std::is_same_v<T, bool>) {
    v = Bool();
  } else if constexpr (std::is_same_v<T, std::uint8_t>) {
    v = U8();
  } else if constexpr (std::is_same_v<T, std::uint32_t>) {
    v = U32();
  } else if constexpr (std::is_same_v<T, std::uint64_t>) {
    v = U64();
  } else if constexpr (std::is_integral_v<T> && std::is_signed_v<T>) {
    v = static_cast<T>(I64());
  } else if constexpr (std::is_same_v<T, double>) {
    v = F64();
  } else if constexpr (std::is_same_v<T, std::string>) {
    v = Str();
  } else if constexpr (byte_io_internal::IsSequence<T>::value) {
    v.clear();
    v.resize(Count(kMinBytes<typename T::value_type>));
    for (auto& e : v) {
      Get(e);
    }
  } else if constexpr (byte_io_internal::IsArray<T>::value) {
    for (auto& e : v) {
      Get(e);
    }
  } else if constexpr (byte_io_internal::HasFields<T>) {
    T::VisitFields(v, FieldReader{*this});
    if constexpr (requires { v.Consistent(); }) {
      if (ok() && !v.Consistent()) {
        Fail();
      }
    }
  } else {
    Codec<T>::Get(*this, v);
  }
}

// CRC32 (IEEE 802.3, reflected polynomial 0xEDB88320), the per-section
// checksum of checkpoint files; `seed` is a previous result to continue
// from. Checkpoint save and load each checksum the whole image, so this
// runs at memory speed: on x86-64 CPUs with PCLMULQDQ it folds 64 bytes
// per step by carry-less multiplication, and elsewhere it runs slice-by-8
// over compile-time tables. The CPU is asked once per process which to
// use; both give the same value for every input.
[[nodiscard]] std::uint32_t Crc32(const std::uint8_t* data, std::size_t size,
                                  std::uint32_t seed = 0);

namespace byte_io_internal {

// Crc32's two implementations, for tests that hold each to the bitwise
// definition. The table loop runs on any CPU.
[[nodiscard]] std::uint32_t Crc32Slice8(const std::uint8_t* data, std::size_t size,
                                        std::uint32_t seed);

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define GRAYSIM_CRC32_CLMUL 1
// True when this CPU has the carry-less multiply Crc32Clmul needs.
[[nodiscard]] bool Crc32ClmulSupported();
// Folds the input by carry-less multiplication, handing a tail of fewer than
// 16 bytes (or an input under 64) to the table loop. Call only when
// Crc32ClmulSupported().
[[nodiscard]] std::uint32_t Crc32Clmul(const std::uint8_t* data, std::size_t size,
                                       std::uint32_t seed);
#endif

}  // namespace byte_io_internal

}  // namespace graysim

#endif  // SRC_SIM_BYTE_IO_H_

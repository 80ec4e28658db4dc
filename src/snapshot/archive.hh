/**
 * @file
 * Versioned, checksummed binary archive for crash-consistent
 * snapshot/restore.
 *
 * Layout of a snapshot file:
 *
 *   offset  size  field
 *        0     8  magic "PPMSNAP\0"
 *        8     4  format version (little-endian u32)
 *       12     8  payload size in bytes (little-endian u64)
 *       20     8  FNV-1a 64 checksum of the payload
 *       28     N  payload
 *
 * The payload is a flat, field-by-field dump.  Each stateful class
 * names its serialized fields once, in a member
 *
 *   template <class A> void visit(A& a) { a(x, y, ...); }
 *
 * and that one list drives both directions: a Writer encodes the
 * fields, a Reader overwrites them in the same order.  A field is
 * encoded by its C++ type:
 *
 *   bool, char, unsigned char   1 byte
 *   int, enums                  i32
 *   long (= int64_t, SimTime)   i64
 *   unsigned long (= size_t)    u64
 *   double                      raw 8 bytes (-0.0 and NaN payloads
 *                               round-trip bit-exactly: a restored run
 *                               must replay the uninterrupted one's
 *                               floating-point trajectory)
 *   std::string                 u64 length + bytes
 *   std::vector<T>              u64 count + elements
 *   std::map<K, V>              u64 count + (key, value) pairs
 *   std::unique_ptr<T>          the pointee (never null)
 *   a type with visit()         its fields
 *   a type with save()/load()   those (sim::Governor's virtuals)
 *
 * Integers are fixed-width little-endian.  a.fixed(c, "what") is for
 * containers whose size comes from construction or admission replay:
 * it writes the count, and the Reader aborts with "snapshot
 * mismatch: what" unless the count equals the live size.  The few
 * direction-specific steps test `A::kLoading` under `if constexpr`.
 * A new field goes into its class's visit() once; a layout change
 * bumps kFormatVersion and re-pins Archive.PayloadLayoutPinned.
 *
 * Failure taxonomy (ppm_run maps each to a distinct one-line
 * diagnostic and exit code 2):
 *   kTruncated    file shorter than the header, or shorter/longer
 *                 than the payload size the header promises;
 *   kBadMagic     not a snapshot file at all;
 *   kBadVersion   a snapshot from an incompatible format version;
 *   kBadChecksum  right shape, corrupted payload bits.
 */

#ifndef PPM_SNAPSHOT_ARCHIVE_HH
#define PPM_SNAPSHOT_ARCHIVE_HH

#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace ppm::snap {

/**
 * Current snapshot format version.  Bump it whenever the payload
 * layout changes, so a file written under another layout is rejected
 * with kBadVersion rather than misread.  Version 4 dropped the
 * adaptive V-F stepper's state (the market's previous excess
 * objective, the round report's two excess norms and each cluster
 * control's step accumulator and last direction); version 5 drops the
 * fleet deficit watchdog's state (the per-chip deficit streaks and the
 * trip count); version 6 drops per-task state that nothing read (the
 * scheduler's CPU-share EWMA and each task's heartbeat and cycle
 * totals).
 */
inline constexpr std::uint32_t kFormatVersion = 6;

static_assert(std::is_same_v<std::int64_t, long> &&
                  std::is_same_v<std::uint64_t, std::size_t>,
              "the field encoding assumes an LP64 toolchain");

/** Outcome of opening a snapshot payload. */
enum class LoadStatus {
    kOk,
    kTruncated,
    kBadMagic,
    kBadVersion,
    kBadChecksum,
};

/** One-word name of a LoadStatus ("ok", "truncated", ...). */
const char* load_status_name(LoadStatus s);

namespace detail {

template <class T>
inline constexpr bool kIsVector = false;
template <class T, class Alloc>
inline constexpr bool kIsVector<std::vector<T, Alloc>> = true;

template <class T>
inline constexpr bool kIsMap = false;
template <class K, class V, class Cmp, class Alloc>
inline constexpr bool kIsMap<std::map<K, V, Cmp, Alloc>> = true;

template <class T>
inline constexpr bool kIsUniquePtr = false;
template <class T, class Del>
inline constexpr bool kIsUniquePtr<std::unique_ptr<T, Del>> = true;

template <class T>
inline constexpr bool kIsByte = std::is_same_v<T, bool> ||
                                std::is_same_v<T, char> ||
                                std::is_same_v<T, unsigned char>;

template <class T>
inline constexpr bool kNoEncoding = false;

} // namespace detail

/** Serializer: fields append to an in-memory payload buffer. */
class Writer
{
  public:
    static constexpr bool kLoading = false;

    /** Encode each field by its type (see the file comment). */
    template <class... T>
    void operator()(const T&... x)
    {
        (field(x), ...);
    }

    /** Write a construction-sized container: count, then elements. */
    template <class C>
    void fixed(const C& c, const char* what)
    {
        (void)what;
        u64(c.size());
        for (const auto& e : c)
            field(e);
    }

    void u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }
    void b(bool v) { u8(v ? 1 : 0); }
    void u32(std::uint32_t v);
    void u64(std::uint64_t v);
    void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
    void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }

    /** Raw 8-byte bit pattern: -0.0, NaN payloads round-trip. */
    void f64(double v)
    {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof bits);
        u64(bits);
    }

    void str(const std::string& s);

    /** Size written so far (payload bytes). */
    std::size_t size() const { return buf_.size(); }

    /** The payload accumulated so far. */
    const std::string& payload() const { return buf_; }

    /** Header + payload, ready to hit disk. */
    std::string finalize() const;

  private:
    template <class T>
    void field(const T& x)
    {
        if constexpr (requires(T& t) { t.visit(*this); }) {
            // visit() is one non-const list for both directions; the
            // Writer only reads the fields it is handed.
            const_cast<T&>(x).visit(*this);
        } else if constexpr (requires { x.save(*this); }) {
            x.save(*this);
        } else if constexpr (detail::kIsByte<T>) {
            u8(static_cast<std::uint8_t>(x));
        } else if constexpr (std::is_same_v<T, int> || std::is_enum_v<T>) {
            i32(static_cast<std::int32_t>(x));
        } else if constexpr (std::is_same_v<T, long>) {
            i64(x);
        } else if constexpr (std::is_same_v<T, unsigned long>) {
            u64(x);
        } else if constexpr (std::is_same_v<T, double>) {
            f64(x);
        } else if constexpr (std::is_same_v<T, std::string>) {
            str(x);
        } else if constexpr (detail::kIsVector<T>) {
            u64(x.size());
            for (const auto& e : x)
                field(e);
        } else if constexpr (detail::kIsMap<T>) {
            u64(x.size());
            for (const auto& [k, v] : x) {
                field(k);
                field(v);
            }
        } else if constexpr (detail::kIsUniquePtr<T>) {
            field(*x);
        } else {
            static_assert(detail::kNoEncoding<T>,
                          "no snapshot encoding for this field type");
        }
    }

    std::string buf_;
};

/** Deserializer over a validated payload. */
class Reader
{
  public:
    static constexpr bool kLoading = true;

    /**
     * Validate `file_bytes` (header + payload).  On kOk the reader is
     * positioned at the start of the payload; any other status leaves
     * it unusable.
     */
    LoadStatus open(const std::string& file_bytes);

    /** Overwrite each field from the payload (see the file comment). */
    template <class... T>
    void operator()(T&... x)
    {
        (field(x), ...);
    }

    /** Read a construction-sized container in place; the saved count
     *  must equal its live size ("snapshot mismatch: what"). */
    template <class C>
    void fixed(C& c, const char* what)
    {
        expect_count(c.size(), what);
        for (auto& e : c)
            field(e);
    }

    std::uint8_t u8();
    bool b() { return u8() != 0; }
    std::uint32_t u32();
    std::uint64_t u64();
    std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
    std::int32_t i32() { return static_cast<std::int32_t>(u32()); }

    double f64()
    {
        const std::uint64_t bits = u64();
        double v;
        std::memcpy(&v, &bits, sizeof v);
        return v;
    }

    std::string str();

    /** Bytes left unread (0 after a complete load). */
    std::size_t remaining() const { return data_.size() - pos_; }

  private:
    const char* take(std::size_t n);

    /** An element count, bounded by the bytes left: every element
     *  encodes at least one, so a misread count fails here rather
     *  than sizing a container from garbage. */
    std::size_t count();

    /** Read a count and abort unless it equals `live`. */
    void expect_count(std::size_t live, const char* what);

    template <class T>
    void field(T& x)
    {
        if constexpr (requires { x.visit(*this); }) {
            x.visit(*this);
        } else if constexpr (requires { x.load(*this); }) {
            x.load(*this);
        } else if constexpr (detail::kIsByte<T>) {
            x = static_cast<T>(u8());
        } else if constexpr (std::is_same_v<T, int> || std::is_enum_v<T>) {
            x = static_cast<T>(i32());
        } else if constexpr (std::is_same_v<T, long>) {
            x = i64();
        } else if constexpr (std::is_same_v<T, unsigned long>) {
            x = u64();
        } else if constexpr (std::is_same_v<T, double>) {
            x = f64();
        } else if constexpr (std::is_same_v<T, std::string>) {
            x = str();
        } else if constexpr (detail::kIsVector<T>) {
            x.resize(count());
            if constexpr (std::is_same_v<typename T::value_type, bool>) {
                for (std::size_t i = 0; i < x.size(); ++i)
                    x[i] = b();
            } else {
                for (auto& e : x)
                    field(e);
            }
        } else if constexpr (detail::kIsMap<T>) {
            x.clear();
            for (std::size_t n = count(); n > 0; --n) {
                typename T::key_type k;
                field(k);
                field(x[std::move(k)]);
            }
        } else if constexpr (detail::kIsUniquePtr<T>) {
            field(*x);
        } else {
            static_assert(detail::kNoEncoding<T>,
                          "no snapshot encoding for this field type");
        }
    }

    std::string data_;  ///< Payload copy (owned; the file buffer dies).
    std::size_t pos_ = 0;
};

/** Write `w`'s finalized bytes to `path` atomically (tmp + rename).
 *  Returns false (and fills `*error`) on any I/O failure. */
bool write_file(const std::string& path, const Writer& w,
                std::string* error);

/** Read and validate `path`; on kOk `*r` is ready to load from. */
LoadStatus read_file(const std::string& path, Reader* r);

} // namespace ppm::snap

#endif // PPM_SNAPSHOT_ARCHIVE_HH

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
 * The payload is a flat, field-by-field dump written by the save()
 * members of every stateful class.  Doubles are serialized as their
 * raw 8 bytes (bit-exact round trip -- the whole point: a restored
 * run must replay the exact floating-point trajectory of the
 * uninterrupted one).  Integers are fixed-width little-endian.
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
#include <string>
#include <vector>

namespace ppm::snap {

/**
 * Current snapshot format version.  Bump it whenever the payload
 * layout changes, so a file written under another layout is rejected
 * with kBadVersion rather than misread.
 */
inline constexpr std::uint32_t kFormatVersion = 2;

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

/** Serializer: primitives append to an in-memory payload buffer. */
class Writer
{
  public:
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

    // Vector helpers for the common column types.
    void f64v(const std::vector<double>& v);
    void i64v(const std::vector<std::int64_t>& v);
    void longv(const std::vector<long>& v);
    void i32v(const std::vector<int>& v);
    void u8v(const std::vector<unsigned char>& v);
    void charv(const std::vector<char>& v);
    void boolv(const std::vector<bool>& v);

    /** Size written so far (payload bytes). */
    std::size_t size() const { return buf_.size(); }

    /** The payload accumulated so far. */
    const std::string& payload() const { return buf_; }

    /** Header + payload, ready to hit disk. */
    std::string finalize() const;

  private:
    std::string buf_;
};

/** Deserializer over a validated payload. */
class Reader
{
  public:
    /**
     * Validate `file_bytes` (header + payload).  On kOk the reader is
     * positioned at the start of the payload; any other status leaves
     * it unusable.
     */
    LoadStatus open(const std::string& file_bytes);

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

    void f64v(std::vector<double>* v);
    void i64v(std::vector<std::int64_t>* v);
    void longv(std::vector<long>* v);
    void i32v(std::vector<int>* v);
    void u8v(std::vector<unsigned char>* v);
    void charv(std::vector<char>* v);
    void boolv(std::vector<bool>* v);

    /** Bytes left unread (0 after a complete load). */
    std::size_t remaining() const { return data_.size() - pos_; }

  private:
    const char* take(std::size_t n);

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

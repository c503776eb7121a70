/**
 * @file
 * Shared record-serialization helpers for the persistent formats.
 *
 * The persistent result cache (sim/disk_cache) and the wire payloads
 * (sim/job_io) speak the same dialect: tab-separated records,
 * one per line, strings percent-escaped so a field can never contain
 * a tab or newline, doubles round-tripped through their raw bit
 * pattern (persisted values stay bit-for-bit identical to computed
 * ones), and a trailing FNV-1a checksum per record so silent bit rot
 * is rejected instead of surfacing as a wrong value.
 *
 * Every parser here is strict by construction -- no atoi, no partial
 * reads, no sign surprises -- because these formats are the trust
 * boundary between processes: a corrupt record must degrade to a
 * miss or a clean error, never to wrong results.
 */

#ifndef VEGETA_SIM_SERIAL_HPP
#define VEGETA_SIM_SERIAL_HPP

#include <optional>
#include <string>
#include <vector>

#include "sim/analytical.hpp"
#include "sim/result.hpp"

namespace vegeta::sim::serial {

/** FNV-1a over a record's pre-checksum text. */
u64 checksum(const std::string &text);

/** Strict u64 parse: decimal digits only, no sign, no garbage. */
bool parseU64(const std::string &text, u64 *out);

/** Strict hex u64 parse (raw double bit patterns, checksums). */
bool parseHexU64(const std::string &text, u64 *out);

/** Strict i64 parse: optional leading '-', digits, no garbage. */
bool parseI64(const std::string &text, i64 *out);

/** A u64 as fixed-width 16-digit lowercase hex. */
std::string hex16(u64 value);

/** A double's raw bit pattern as hex (bit-exact round trip). */
std::string doubleBits(double value);

/** Parse a doubleBits field back (false on malformed hex). */
bool parseDoubleBits(const std::string &text, double *out);

/** Percent-escape '%', tab, newline, and CR (identity otherwise). */
std::string escape(const std::string &text);

/** Undo escape(); false on a malformed %XX sequence. */
bool unescape(const std::string &text, std::string *out);

/** Split a record line on tabs (no unescaping). */
std::vector<std::string> splitTabs(const std::string &line);

/**
 * Field-cursor over one split record: strict typed reads that fail
 * sticky-once so callers can chain reads and check ok() at the end.
 */
class FieldReader
{
  public:
    explicit FieldReader(std::vector<std::string> fields)
        : fields_(std::move(fields))
    {
    }

    bool ok() const { return ok_; }

    /** Every field consumed (a record with trailing junk is bad). */
    bool done() const { return ok_ && next_ == fields_.size(); }

    std::size_t remaining() const { return fields_.size() - next_; }

    std::string raw();
    std::string str(); ///< unescaped string field
    u64 num();         ///< strict decimal u64
    i64 signedNum();   ///< strict decimal i64
    u64 hex();         ///< strict hex u64
    double bits();     ///< double from raw bit pattern
    u32 num32();       ///< strict u64 that must fit in u32

  private:
    void fail() { ok_ = false; }

    std::vector<std::string> fields_;
    std::size_t next_ = 0;
    bool ok_ = true;
};

/**
 * Record assembler: append typed fields, then line() yields the
 * tab-joined record with its trailing checksum field.
 */
class FieldWriter
{
  public:
    FieldWriter &raw(const std::string &text);
    FieldWriter &str(const std::string &text); ///< escaped
    FieldWriter &num(u64 value);
    FieldWriter &signedNum(i64 value);
    FieldWriter &hex(u64 value);
    FieldWriter &bits(double value);

    /** The record with its checksum appended. */
    std::string line() const;

    /** The record without a checksum (for footers etc.). */
    const std::string &body() const { return body_; }

  private:
    std::string body_;
    bool first_ = true;
};

/** Append a SimulationResult's fields (13 of them) to a record. */
void appendSimulationResult(FieldWriter &writer,
                            const SimulationResult &result);

/** Read the fields appendSimulationResult wrote. */
bool readSimulationResult(FieldReader &reader,
                          SimulationResult *result);

/** Append an AnalyticalResult (variable length, count-prefixed). */
void appendAnalyticalResult(FieldWriter &writer,
                            const AnalyticalResult &result);

/** Read the fields appendAnalyticalResult wrote. */
bool readAnalyticalResult(FieldReader &reader,
                          AnalyticalResult *result);

/**
 * Verify and strip a record line's trailing checksum field; returns
 * the split pre-checksum fields, or nullopt when the line is
 * malformed or the checksum disagrees.
 */
std::optional<std::vector<std::string>>
checkedFields(const std::string &line);

} // namespace vegeta::sim::serial

#endif // VEGETA_SIM_SERIAL_HPP

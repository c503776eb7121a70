/**
 * @file
 * Persistent (on-disk) result caching.
 *
 * The in-memory ResultCache dies with the process; the DiskResultCache
 * persists results across runs so a warm sweep replays nothing.  Both
 * halves of the evaluation are persisted: simulation results keyed by
 * the canonical cacheKey serialization and analytical results keyed by
 * analyticalKey, stored as type-tagged records (one per line) in a
 * version-headed text file under the cache directory.
 *
 * The load path is corruption-tolerant by construction: a missing
 * file is an empty cache, a version-mismatched header (including a v1
 * file from before analytical records existed) invalidates the whole
 * file (it is rewritten on the next insert), and a truncated or
 * corrupt record -- including silent bit rot inside a value field,
 * caught by a per-record checksum -- is skipped, so a damaged cache
 * can only cause misses, never wrong results.  Doubles round-trip
 * through their raw bit pattern so persisted results stay bit-for-bit
 * identical to freshly computed ones.
 *
 * Appends take an exclusive flock() on the backing file, so any
 * number of concurrent writer processes (workers sharing one
 * --cache-dir) interleave whole records, never torn ones; combined
 * with first-insert-wins load semantics, concurrent writers are safe
 * by construction.  The append-only file can be bounded with prune():
 * keep the most-recently-appended entries under a byte and/or entry
 * budget and compact the file in place.
 */

#ifndef VEGETA_SIM_DISK_CACHE_HPP
#define VEGETA_SIM_DISK_CACHE_HPP

#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/analytical.hpp"
#include "sim/result.hpp"

namespace vegeta::sim {

/** Traffic and load-time health counters of a DiskResultCache. */
struct DiskCacheStats
{
    u64 hits = 0;   ///< simulation + analysis hits
    u64 misses = 0; ///< simulation + analysis misses
    u64 insertions = 0; ///< records appended by this process
    u64 loaded = 0;     ///< valid records read from disk on open
    u64 rejected = 0;   ///< corrupt/truncated records skipped on open
    bool versionMismatch = false; ///< whole file ignored on open

    u64 simulationEntries = 0; ///< cached simulation results
    u64 analysisEntries = 0;   ///< cached analytical results
    u64 fileBytes = 0;         ///< current size of the backing file

    /** Bytes the most recent prune() reclaimed (persisted in the
     *  cache directory, so it survives across processes). */
    u64 lastPruneBytes = 0;

    /** hits / (hits + misses) of this process (0 with no traffic). */
    double hitRate() const
    {
        const u64 total = hits + misses;
        return total == 0 ? 0.0
                          : double(hits) / double(total);
    }
};

/** What prune() kept and dropped. */
struct DiskCachePrune
{
    u64 kept = 0;
    u64 dropped = 0;
    u64 fileBytes = 0;      ///< backing-file size after compaction
    u64 reclaimedBytes = 0; ///< backing-file bytes freed
};

/** What one mergeFrom() call added and skipped. */
struct DiskCacheMerge
{
    u64 added = 0;   ///< entries new to the destination
    u64 skipped = 0; ///< entries the destination already had
};

/**
 * Thread-safe persistent map from canonical request keys to results,
 * backed by `<directory>/results.vgc`.  The file is read once on
 * construction and appended to on insert, so sessions (and worker
 * processes) pointed at the same directory share results.
 * First insert wins, matching ResultCache.
 */
class DiskResultCache
{
  public:
    /**
     * Open (creating the directory and file as needed) the cache
     * under @p directory.  Check ok() before relying on persistence;
     * a cache that failed to open still works as an in-memory map.
     */
    explicit DiskResultCache(const std::string &directory);

    /** False when the directory/file could not be created or read. */
    bool ok() const { return ok_; }

    const std::string &directory() const { return directory_; }

    /** Full path of the backing file. */
    const std::string &filePath() const { return file_; }

    /** The cached result for key, or nullopt (counts a hit/miss). */
    std::optional<SimulationResult> find(const std::string &key) const;

    /** Persist a result under key (first insert wins, flushed). */
    void insert(const std::string &key,
                const SimulationResult &result);

    /** The cached analytical result for key, or nullopt. */
    std::optional<AnalyticalResult>
    findAnalysis(const std::string &key) const;

    /** Persist an analytical result (first insert wins, flushed). */
    void insertAnalysis(const std::string &key,
                        const AnalyticalResult &result);

    /** Total cached entries (simulation + analysis). */
    std::size_t size() const;

    /** Drop every entry and truncate the backing file. */
    void clear();

    /**
     * Bound the cache: keep the most-recently-appended entries whose
     * records fit under @p max_bytes (backing-file bytes, header
     * included) and @p max_entries, drop the rest, and compact the
     * backing file.  Nullopt means unbounded in that dimension.
     */
    DiskCachePrune prune(std::optional<u64> max_bytes,
                         std::optional<u64> max_entries);

    /**
     * Union another cache into this one, first-insert-wins: every
     * entry of @p source whose key this cache does not hold yet is
     * appended (in the source's append order); keys already present
     * keep THIS cache's result, exactly like a concurrent writer
     * losing the insert race.  Persisted with one locked append.
     */
    DiskCacheMerge mergeFrom(const DiskResultCache &source);

    DiskCacheStats stats() const;

    /** The on-disk format version tag this build reads and writes. */
    static const char *formatHeader();

  private:
    enum class RecordKind
    {
        Simulation,
        Analysis,
    };

    void load();
    void loadLastPrune();
    void saveLastPruneLocked(u64 reclaimed);
    bool rewriteLocked();
    bool appendRecordLocked(const std::string &record);
    std::string formatEntryLocked(RecordKind kind,
                                  const std::string &key) const;
    u64 fileBytesLocked() const;

    std::string directory_;
    std::string file_;
    std::string prune_note_file_;
    bool ok_ = false;
    bool needs_rewrite_ = false;

    mutable std::mutex mutex_;
    std::unordered_map<std::string, SimulationResult> entries_;
    std::unordered_map<std::string, AnalyticalResult> analyses_;

    /** Append order (oldest first) -- what prune() evicts from. */
    std::vector<std::pair<RecordKind, std::string>> order_;

    mutable u64 hits_ = 0;
    mutable u64 misses_ = 0;
    u64 last_prune_bytes_ = 0;
    u64 insertions_ = 0;
    u64 loaded_ = 0;
    u64 rejected_ = 0;
    bool version_mismatch_ = false;
};

} // namespace vegeta::sim

#endif // VEGETA_SIM_DISK_CACHE_HPP

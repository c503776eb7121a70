#include "sim/disk_cache.hpp"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>

#include "sim/serial.hpp"
#include "sim/telemetry.hpp"

namespace vegeta::sim {

namespace {

// Disk-cache traffic counters (distinct from the session-level
// probe counters: these count every call into THIS cache object).
void
countCacheHit()
{
    static const telemetry::MetricId id =
        telemetry::counterId("cache.disk.hit");
    telemetry::add(id, 1);
}

void
countCacheMiss()
{
    static const telemetry::MetricId id =
        telemetry::counterId("cache.disk.miss");
    telemetry::add(id, 1);
}

void
countCacheInsert()
{
    static const telemetry::MetricId id =
        telemetry::counterId("cache.disk.insert");
    telemetry::add(id, 1);
}

/** Record type tags, the first field of every v2 line. */
constexpr const char *kSimTag = "S";
constexpr const char *kAnaTag = "A";

/** One simulation record as a line: tag, key, result, checksum. */
std::string
formatSimRecord(const std::string &key, const SimulationResult &r)
{
    serial::FieldWriter writer;
    writer.raw(kSimTag).str(key);
    serial::appendSimulationResult(writer, r);
    return writer.line();
}

/** One analytical record as a line: tag, key, result, checksum. */
std::string
formatAnaRecord(const std::string &key, const AnalyticalResult &r)
{
    serial::FieldWriter writer;
    writer.raw(kAnaTag).str(key);
    serial::appendAnalyticalResult(writer, r);
    return writer.line();
}

/**
 * RAII exclusive flock over the backing file, creating it as needed.
 * Concurrent writer processes (workers sharing one cache dir)
 * serialize on this lock, so records are appended whole -- the
 * explicit spelling of the "concurrent first-insert-wins appends are
 * safe" guarantee.
 */
class LockedFile
{
  public:
    explicit LockedFile(const std::string &path)
    {
        fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT, 0644);
        if (fd_ >= 0 && ::flock(fd_, LOCK_EX) != 0) {
            ::close(fd_);
            fd_ = -1;
        }
    }

    ~LockedFile()
    {
        if (fd_ >= 0) {
            ::flock(fd_, LOCK_UN);
            ::close(fd_);
        }
    }

    bool ok() const { return fd_ >= 0; }

    /** Size of the locked file (0 on error). */
    u64 size() const
    {
        struct stat st = {};
        if (::fstat(fd_, &st) != 0)
            return 0;
        return static_cast<u64>(st.st_size);
    }

    /** Append the whole text at the end (short writes retried). */
    bool append(const std::string &text)
    {
        if (::lseek(fd_, 0, SEEK_END) < 0)
            return false;
        return writeAll(text);
    }

    /** Replace the whole contents with text. */
    bool replace(const std::string &text)
    {
        if (::ftruncate(fd_, 0) != 0 ||
            ::lseek(fd_, 0, SEEK_SET) < 0)
            return false;
        return writeAll(text);
    }

  private:
    bool writeAll(const std::string &text)
    {
        const char *data = text.data();
        std::size_t left = text.size();
        while (left > 0) {
            const ssize_t n = ::write(fd_, data, left);
            if (n <= 0)
                return false;
            data += n;
            left -= static_cast<std::size_t>(n);
        }
        return true;
    }

    int fd_ = -1;
};

} // namespace

const char *
DiskResultCache::formatHeader()
{
    return "vegeta-result-cache v2";
}

DiskResultCache::DiskResultCache(const std::string &directory)
    : directory_(directory)
{
    std::error_code ec;
    std::filesystem::create_directories(directory_, ec);
    file_ = (std::filesystem::path(directory_) / "results.vgc")
                .string();
    prune_note_file_ =
        (std::filesystem::path(directory_) / "last_prune.vgc")
            .string();
    ok_ = !ec && std::filesystem::is_directory(directory_);
    if (ok_) {
        load();
        loadLastPrune();
    }
}

void
DiskResultCache::loadLastPrune()
{
    std::ifstream is(prune_note_file_);
    if (!is)
        return; // never pruned: 0
    std::string line;
    if (!std::getline(is, line))
        return;
    auto fields = serial::checkedFields(line);
    if (!fields)
        return; // corrupt note degrades to 0, never to an error
    serial::FieldReader reader(std::move(*fields));
    if (reader.raw() != "lastprune")
        return;
    const u64 bytes = reader.num();
    if (reader.done())
        last_prune_bytes_ = bytes;
}

void
DiskResultCache::saveLastPruneLocked(u64 reclaimed)
{
    last_prune_bytes_ = reclaimed;
    std::ofstream os(prune_note_file_, std::ios::trunc);
    if (!os)
        return; // stats fall back to this process's value
    serial::FieldWriter writer;
    writer.raw("lastprune").num(reclaimed);
    os << writer.line() << '\n';
}

void
DiskResultCache::load()
{
    std::ifstream is(file_);
    if (!is)
        return; // no file yet: an empty cache, created on insert

    std::string line;
    if (!std::getline(is, line) || line != formatHeader()) {
        // Unknown, old, or future format: never guess at its
        // records.  The file is rewritten wholesale on the next
        // insert.
        version_mismatch_ = true;
        needs_rewrite_ = true;
        return;
    }
    while (std::getline(is, line)) {
        if (line.empty())
            continue;
        auto fields = serial::checkedFields(line);
        if (!fields) {
            ++rejected_; // truncated tail or bit rot: a miss, not an
            continue;    // error -- the entry just re-simulates
        }
        serial::FieldReader reader(std::move(*fields));
        const std::string tag = reader.raw();
        const std::string key = reader.str();
        if (!reader.ok() || key.empty()) {
            ++rejected_;
            continue;
        }
        if (tag == kSimTag) {
            SimulationResult result;
            if (!serial::readSimulationResult(reader, &result) ||
                !reader.done()) {
                ++rejected_;
                continue;
            }
            if (entries_.emplace(key, std::move(result)).second) {
                order_.emplace_back(RecordKind::Simulation, key);
                ++loaded_;
            }
        } else if (tag == kAnaTag) {
            AnalyticalResult result;
            if (!serial::readAnalyticalResult(reader, &result) ||
                !reader.done()) {
                ++rejected_;
                continue;
            }
            if (analyses_.emplace(key, std::move(result)).second) {
                order_.emplace_back(RecordKind::Analysis, key);
                ++loaded_;
            }
        } else {
            ++rejected_;
        }
    }
}

std::optional<SimulationResult>
DiskResultCache::find(const std::string &key) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = entries_.find(key);
    if (it == entries_.end()) {
        ++misses_;
        countCacheMiss();
        return std::nullopt;
    }
    ++hits_;
    countCacheHit();
    return it->second;
}

void
DiskResultCache::insert(const std::string &key,
                        const SimulationResult &result)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (!entries_.emplace(key, result).second)
        return;
    order_.emplace_back(RecordKind::Simulation, key);
    ++insertions_;
    countCacheInsert();
    if (needs_rewrite_) {
        if (rewriteLocked())
            needs_rewrite_ = false;
    } else {
        appendRecordLocked(formatSimRecord(key, result));
    }
}

std::optional<AnalyticalResult>
DiskResultCache::findAnalysis(const std::string &key) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = analyses_.find(key);
    if (it == analyses_.end()) {
        ++misses_;
        countCacheMiss();
        return std::nullopt;
    }
    ++hits_;
    countCacheHit();
    return it->second;
}

void
DiskResultCache::insertAnalysis(const std::string &key,
                                const AnalyticalResult &result)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (!analyses_.emplace(key, result).second)
        return;
    order_.emplace_back(RecordKind::Analysis, key);
    ++insertions_;
    countCacheInsert();
    if (needs_rewrite_) {
        if (rewriteLocked())
            needs_rewrite_ = false;
    } else {
        appendRecordLocked(formatAnaRecord(key, result));
    }
}

std::string
DiskResultCache::formatEntryLocked(RecordKind kind,
                                   const std::string &key) const
{
    if (kind == RecordKind::Simulation)
        return formatSimRecord(key, entries_.at(key));
    return formatAnaRecord(key, analyses_.at(key));
}

bool
DiskResultCache::rewriteLocked()
{
    std::string text = formatHeader();
    text += '\n';
    for (const auto &[kind, key] : order_) {
        text += formatEntryLocked(kind, key);
        text += '\n';
    }
    LockedFile file(file_);
    return file.ok() && file.replace(text);
}

bool
DiskResultCache::appendRecordLocked(const std::string &record)
{
    LockedFile file(file_);
    if (!file.ok())
        return false;
    // The header check happens under the lock, so of N concurrent
    // writer processes racing to create the file exactly one writes
    // the header.
    std::string text;
    if (file.size() == 0)
        text = std::string(formatHeader()) + '\n';
    text += record;
    text += '\n';
    return file.append(text);
}

std::size_t
DiskResultCache::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size() + analyses_.size();
}

void
DiskResultCache::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    entries_.clear();
    analyses_.clear();
    order_.clear();
    // If truncation fails the stale file still holds every record:
    // keep the rewrite pending so the next insert retries it rather
    // than appending to (and thereby resurrecting) the old contents.
    needs_rewrite_ = !rewriteLocked();
}

DiskCachePrune
DiskResultCache::prune(std::optional<u64> max_bytes,
                       std::optional<u64> max_entries)
{
    std::lock_guard<std::mutex> lock(mutex_);
    DiskCachePrune pruned;
    const u64 bytes_before = fileBytesLocked();

    // Walk newest-to-oldest accumulating record sizes; the kept set
    // is the longest most-recent suffix fitting both budgets.
    const u64 header_bytes =
        static_cast<u64>(std::string(formatHeader()).size()) + 1;
    u64 bytes = header_bytes;
    std::size_t keep_from = order_.size();
    while (keep_from > 0) {
        const auto &[kind, key] = order_[keep_from - 1];
        const u64 record_bytes =
            static_cast<u64>(formatEntryLocked(kind, key).size()) + 1;
        const u64 kept_count = order_.size() - keep_from + 1;
        if (max_entries && kept_count > *max_entries)
            break;
        if (max_bytes && bytes + record_bytes > *max_bytes)
            break;
        bytes += record_bytes;
        --keep_from;
    }

    pruned.dropped = keep_from;
    pruned.kept = order_.size() - keep_from;
    for (std::size_t i = 0; i < keep_from; ++i) {
        const auto &[kind, key] = order_[i];
        if (kind == RecordKind::Simulation)
            entries_.erase(key);
        else
            analyses_.erase(key);
    }
    order_.erase(order_.begin(),
                 order_.begin() +
                     static_cast<std::ptrdiff_t>(keep_from));
    // Compact also when nothing was dropped but the physical file is
    // bigger than the kept set -- duplicate lines from concurrent
    // appenders or rejected records would otherwise keep the file
    // over a byte budget the entries themselves fit in.
    if (keep_from > 0 || fileBytesLocked() > bytes)
        needs_rewrite_ = !rewriteLocked();
    pruned.fileBytes = fileBytesLocked();
    pruned.reclaimedBytes = bytes_before > pruned.fileBytes
                                ? bytes_before - pruned.fileBytes
                                : 0;
    saveLastPruneLocked(pruned.reclaimedBytes);
    return pruned;
}

DiskCacheMerge
DiskResultCache::mergeFrom(const DiskResultCache &source)
{
    // Snapshot the source under ITS lock, then merge under ours --
    // the two locks are never held together, so two caches merging
    // from each other cannot deadlock.
    std::vector<std::pair<RecordKind, std::string>> src_order;
    std::unordered_map<std::string, SimulationResult> src_entries;
    std::unordered_map<std::string, AnalyticalResult> src_analyses;
    {
        std::lock_guard<std::mutex> lock(source.mutex_);
        src_order = source.order_;
        src_entries = source.entries_;
        src_analyses = source.analyses_;
    }

    std::lock_guard<std::mutex> lock(mutex_);
    DiskCacheMerge merge;
    std::string appended;
    for (const auto &[kind, key] : src_order) {
        bool inserted = false;
        if (kind == RecordKind::Simulation) {
            const auto it = src_entries.find(key);
            if (it == src_entries.end())
                continue;
            inserted = entries_.emplace(key, it->second).second;
        } else {
            const auto it = src_analyses.find(key);
            if (it == src_analyses.end())
                continue;
            inserted = analyses_.emplace(key, it->second).second;
        }
        if (!inserted) {
            ++merge.skipped;
            continue;
        }
        order_.emplace_back(kind, key);
        ++merge.added;
        ++insertions_;
        appended += formatEntryLocked(kind, key);
        appended += '\n';
    }
    if (merge.added == 0)
        return merge;
    if (needs_rewrite_) {
        if (rewriteLocked())
            needs_rewrite_ = false;
        return merge;
    }
    LockedFile file(file_);
    if (file.ok()) {
        std::string text;
        if (file.size() == 0)
            text = std::string(formatHeader()) + '\n';
        text += appended;
        file.append(text);
    }
    return merge;
}

u64
DiskResultCache::fileBytesLocked() const
{
    std::error_code ec;
    const auto bytes = std::filesystem::file_size(file_, ec);
    return ec ? 0 : static_cast<u64>(bytes);
}

DiskCacheStats
DiskResultCache::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    DiskCacheStats stats;
    stats.hits = hits_;
    stats.misses = misses_;
    stats.insertions = insertions_;
    stats.loaded = loaded_;
    stats.rejected = rejected_;
    stats.versionMismatch = version_mismatch_;
    stats.simulationEntries = entries_.size();
    stats.analysisEntries = analyses_.size();
    stats.fileBytes = fileBytesLocked();
    stats.lastPruneBytes = last_prune_bytes_;
    return stats;
}

} // namespace vegeta::sim

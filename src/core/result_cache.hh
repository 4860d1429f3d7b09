/**
 * @file
 * Content-addressed cache of finished experiment reports.
 *
 * A bench result is a pure function of (experiment name, canonical
 * post-parse configuration, seed range) under one version of the
 * simulator — the whole repo is built around that determinism (the
 * parallel runner's bit-identical merge, the CI --jobs equality
 * checks).  The cache exploits it: the canonical description hashes to
 * a key, a hit replays the stored `cellbw-bench-v2` JSON bytes without
 * simulating anything, a miss runs and populates.
 *
 * Layout under the root (default `.cellbw-cache/`):
 *
 *   <root>/<k[0..1]>/<key>.json   the report, byte-exact
 *   <root>/<k[0..1]>/<key>.key    the key material, then one integrity
 *                                 line: `report <bytes> <hash>`
 *
 * The .key file makes hits self-validating without parsing the report:
 * load() re-checks the stored material against the request and the
 * report's size and hashKey() against the integrity line, so a
 * (vanishingly unlikely) hash collision, any changed byte, a truncated
 * report or a .key without the line degrades to a miss, never to a
 * wrong result.
 *
 * Invalidation is by salt: salt() names the result-affecting code
 * version and is mixed into every key.  Bump kSalt whenever a change
 * can alter simulated results (timing model, RNG stream, report
 * contents) and every stale entry silently misses.  Result-neutral
 * flags (--jobs/--json/--csv) are excluded from the material, so runs
 * differing only in host scheduling or output share an entry.
 */

#ifndef CELLBW_CORE_RESULT_CACHE_HH
#define CELLBW_CORE_RESULT_CACHE_HH

#include <optional>
#include <string>

#include "util/options.hh"

namespace cellbw::util
{
class FileLock;
}

namespace cellbw::core
{

class ResultCache
{
  public:
    /**
     * The code-version salt.  Bump the trailing integer with any
     * change that can alter experiment results or report bytes.
     */
    static constexpr const char *kSalt = "cellbw-results-7";

    static const char *salt() { return kSalt; }

    /**
     * Canonical key material for @p experiment under @p opts: salt,
     * report schema, experiment name, and every non-result-neutral
     * option as `name=value` with the value re-rendered from its
     * parsed form (so `--bytes-per-spe 4M` and `=4MiB` agree).
     */
    static std::string materialFor(const std::string &experiment,
                                   const util::Options &opts);

    /** 64-bit FNV-1a of @p material, as 16 hex chars. */
    static std::string hashKey(const std::string &material);

    explicit ResultCache(std::string root = ".cellbw-cache");

    const std::string &root() const { return root_; }

    /**
     * The stored report bytes for @p key, or nullopt on miss.  The
     * stored material must equal @p material or the entry is treated
     * as a miss (collision guard).  A damaged entry (the .json missing
     * or not matching the .key's integrity line) is removed under the
     * writer lock so the whole pair reads as a clean miss everywhere,
     * then reruns.
     */
    std::optional<std::string> load(const std::string &key,
                                    const std::string &material) const;

    /**
     * Store @p reportBytes under @p key, with @p material and the
     * report's integrity line in the .key; false on I/O failure.  Holds
     * the cross-process advisory lock (`<root>/.lock`) while writing
     * so parallel writers and prune() serialize; the write itself is
     * temp-file + rename, so even unlocked readers never see a torn
     * file.
     */
    bool store(const std::string &key, const std::string &material,
               const std::string &reportBytes) const;

    /** What prune() scanned and evicted. */
    struct PruneStats
    {
        std::uint64_t entries = 0;      ///< entries found
        std::uint64_t bytes = 0;        ///< bytes found (.json + .key)
        std::uint64_t evicted = 0;      ///< entries removed
        std::uint64_t evictedBytes = 0; ///< bytes removed
    };

    /**
     * Evict least-recently-used entries until the cache holds at most
     * @p maxBytes (0 empties it).  Recency is the entry's file mtime;
     * load() refreshes it on every hit, so the order is true LRU, not
     * insertion order.  Unpaired/foreign files are left alone, as are
     * entries whose stat fails mid-scan (e.g. racing an unlocked
     * deleter).  Runs under the cross-process advisory lock.
     */
    PruneStats prune(std::uint64_t maxBytes) const;

  private:
    std::string dirFor(const std::string &key) const;
    std::string lockPath() const;

    /** Create the root and take the advisory lock; false = proceed
     *  unlocked (best effort). */
    bool lockRoot(util::FileLock &lock) const;

    /** Remove a damaged (.key without matching .json) entry under the
     *  lock. */
    void recoverTornEntry(const std::string &base,
                          const std::string &material) const;

    std::string root_;
};

} // namespace cellbw::core

#endif // CELLBW_CORE_RESULT_CACHE_HH

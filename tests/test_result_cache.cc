/** @file Tests for the content-addressed result cache. */

#include <gtest/gtest.h>

#include <chrono>
#include <clocale>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment_context.hh"
#include "core/result_cache.hh"
#include "stats/json_writer.hh"
#include "util/file.hh"

using namespace cellbw;

namespace
{

/** Parse @p args into a fresh context and return (material, key). */
std::pair<std::string, std::string>
keyOf(const std::vector<std::string> &args)
{
    core::ExperimentContext ctx("cache_test", "d");
    std::vector<const char *> argv{"prog"};
    for (const auto &a : args)
        argv.push_back(a.c_str());
    EXPECT_TRUE(ctx.parse(static_cast<int>(argv.size()), argv.data()));
    return {ctx.cacheMaterial(), ctx.cacheKey()};
}

std::string
tempRoot(const char *name)
{
    // A fresh root every time: temp dirs survive across test runs.
    std::string root =
        testing::TempDir() + "cellbw_cache_test_" + name;
    std::filesystem::remove_all(root);
    return root;
}

} // namespace

TEST(ResultCache, KeyIsStable)
{
    auto a = keyOf({"--quick", "--runs", "2"});
    auto b = keyOf({"--quick", "--runs", "2"});
    EXPECT_EQ(a.first, b.first);
    EXPECT_EQ(a.second, b.second);
}

TEST(ResultCache, CanonicalizationUnifiesSpellings)
{
    // 4M and 4MiB parse to the same byte count; the material uses the
    // parsed form, so the keys agree.
    auto a = keyOf({"--bytes-per-spe", "4M"});
    auto b = keyOf({"--bytes-per-spe", "4MiB"});
    EXPECT_EQ(a.second, b.second);
}

TEST(ResultCache, ResultNeutralFlagsDoNotChangeKey)
{
    auto base = keyOf({"--quick"});
    EXPECT_EQ(keyOf({"--quick", "--jobs", "7"}).second, base.second);
    EXPECT_EQ(keyOf({"--quick", "--csv"}).second, base.second);
    EXPECT_EQ(keyOf({"--quick", "--json", "x.json"}).second,
              base.second);
}

TEST(ResultCache, ResultAffectingFlagsChangeKey)
{
    auto base = keyOf({"--quick"});
    EXPECT_NE(keyOf({"--quick", "--seed", "99"}).second, base.second);
    EXPECT_NE(keyOf({"--quick", "--runs", "2"}).second, base.second);
    EXPECT_NE(keyOf({"--quick", "--spes", "4"}).second, base.second);
    EXPECT_NE(keyOf({}).second, base.second);
}

TEST(ResultCache, KeyDependsOnExperimentName)
{
    core::ExperimentContext a("exp_a", "d"), b("exp_b", "d");
    const char *argv[] = {"prog", "--quick"};
    ASSERT_TRUE(a.parse(2, argv));
    ASSERT_TRUE(b.parse(2, argv));
    EXPECT_NE(a.cacheKey(), b.cacheKey());
}

TEST(ResultCache, SimAndNativeBackendsNeverShareAKey)
{
    // The backend is canonical config: the same experiment name with
    // identical flags must hash differently per backend, so a native
    // measurement can never collide with (or replay as) a sim result.
    core::ExperimentContext sim("exp_x", "d", core::Backend::Sim);
    core::ExperimentContext nat("exp_x", "d", core::Backend::Native);
    const char *argv[] = {"prog", "--quick", "--warmup", "0"};
    ASSERT_TRUE(sim.parse(4, argv));
    ASSERT_TRUE(nat.parse(4, argv));
    EXPECT_NE(sim.cacheKey(), nat.cacheKey());
    EXPECT_NE(sim.cacheMaterial(), nat.cacheMaterial());
    EXPECT_NE(sim.cacheMaterial().find("backend=sim"),
              std::string::npos);
    EXPECT_NE(nat.cacheMaterial().find("backend=native"),
              std::string::npos);
}

TEST(ResultCache, MaterialNamesSaltAndExperiment)
{
    auto [material, key] = keyOf({"--quick"});
    EXPECT_NE(material.find(core::ResultCache::kSalt),
              std::string::npos);
    EXPECT_NE(material.find("experiment cache_test"),
              std::string::npos);
    EXPECT_EQ(key, core::ResultCache::hashKey(material));
}

TEST(ResultCache, StoreThenLoadIsBitIdentical)
{
    core::ResultCache cache(tempRoot("roundtrip"));
    const std::string material = "salt x\nexperiment e\nopt runs=2\n";
    const std::string key = core::ResultCache::hashKey(material);
    const std::string report =
        "{\"schema\":\"cellbw-bench-v3\",\"bench\":\"e\"}\n";

    EXPECT_FALSE(cache.load(key, material).has_value());
    ASSERT_TRUE(cache.store(key, material, report));
    auto hit = cache.load(key, material);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit, report);
}

TEST(ResultCache, MaterialMismatchIsAMiss)
{
    core::ResultCache cache(tempRoot("mismatch"));
    const std::string material = "salt x\nexperiment e\n";
    const std::string key = core::ResultCache::hashKey(material);
    const std::string report =
        "{\"schema\":\"cellbw-bench-v3\",\"bench\":\"e\"}\n";
    ASSERT_TRUE(cache.store(key, material, report));
    // Same key, different material: a collision (or corrupted entry)
    // must degrade to a miss, never a wrong replay.
    EXPECT_FALSE(cache.load(key, "salt y\nexperiment e\n").has_value());
    EXPECT_TRUE(cache.load(key, material).has_value());
}

TEST(ResultCache, DamagedReportBytesAreAMiss)
{
    const std::string root = tempRoot("damaged");
    core::ResultCache cache(root);
    const std::string material = "salt x\nexperiment e\n";
    const std::string key = core::ResultCache::hashKey(material);
    const std::string report =
        "{\"schema\":\"cellbw-bench-v3\",\"bench\":\"e\"}\n";
    ASSERT_TRUE(cache.store(key, material, report));
    ASSERT_TRUE(cache.load(key, material).has_value());

    // A torn write leaves a valid .key beside truncated JSON; replay
    // would poison the output tree, so load() must miss instead.
    const std::string path =
        root + "/" + key.substr(0, 2) + "/" + key + ".json";
    std::ofstream(path, std::ios::trunc) << report.substr(0, 10);
    EXPECT_FALSE(cache.load(key, material).has_value());

    // Valid JSON of the wrong schema is equally untrustworthy.
    std::ofstream(path, std::ios::trunc) << "{\"schema\":\"other\"}";
    EXPECT_FALSE(cache.load(key, material).has_value());

    // Re-storing repairs the entry.
    ASSERT_TRUE(cache.store(key, material, report));
    EXPECT_TRUE(cache.load(key, material).has_value());

    // One changed digit leaves a valid report of our schema with the
    // same size, yet a wrong number: a miss, and the entry goes.
    const std::string numbers =
        "{\"schema\":\"cellbw-bench-v3\",\"points\":[{\"GB/s\":33.08}]}\n";
    ASSERT_TRUE(cache.store(key, material, numbers));
    ASSERT_TRUE(cache.load(key, material).has_value());
    std::string changed = numbers;
    changed[changed.find("33.08")] = '4';
    std::ofstream(path, std::ios::trunc) << changed;
    EXPECT_FALSE(cache.load(key, material).has_value());
    EXPECT_FALSE(std::filesystem::exists(path));
    EXPECT_FALSE(std::filesystem::exists(
        root + "/" + key.substr(0, 2) + "/" + key + ".key"));
}

TEST(ResultCache, EntriesWithoutTheirIntegrityLineAreAMiss)
{
    const std::string root = tempRoot("integrity");
    core::ResultCache cache(root);
    const std::string material = "salt x\nexperiment e\n";
    const std::string key = core::ResultCache::hashKey(material);
    const std::string report =
        "{\"schema\":\"cellbw-bench-v3\",\"bench\":\"e\"}\n";
    const std::string base = root + "/" + key.substr(0, 2) + "/" + key;

    // A .key holding only the material, as earlier versions wrote it,
    // vouches for no report bytes: a miss, which store() then repairs.
    ASSERT_TRUE(cache.store(key, material, report));
    std::ofstream(base + ".key", std::ios::trunc) << material;
    EXPECT_FALSE(cache.load(key, material).has_value());
    ASSERT_TRUE(cache.store(key, material, report));
    auto hit = cache.load(key, material);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit, report);

    // An integrity line naming the wrong byte count is a miss too, even
    // with the right hash.
    std::string stored;
    ASSERT_TRUE(util::readFile(base + ".key", stored));
    const std::string size = " " + std::to_string(report.size()) + " ";
    const auto at = stored.rfind(size);
    ASSERT_NE(at, std::string::npos) << stored;
    stored.replace(at, size.size(),
                   " " + std::to_string(report.size() + 1) + " ");
    std::ofstream(base + ".key", std::ios::trunc) << stored;
    EXPECT_FALSE(cache.load(key, material).has_value());
}

namespace
{

/** Store a minimal valid entry for @p name; returns (key, material). */
std::pair<std::string, std::string>
putEntry(const core::ResultCache &cache, const std::string &name)
{
    const std::string material = "salt x\nexperiment " + name + "\n";
    const std::string key = core::ResultCache::hashKey(material);
    const std::string report =
        "{\"schema\":\"cellbw-bench-v3\",\"bench\":\"" + name + "\"}\n";
    EXPECT_TRUE(cache.store(key, material, report));
    return {key, material};
}

/** Backdate an entry's recency by @p age hours. */
void
ageEntry(const core::ResultCache &cache, const std::string &key,
         int age)
{
    std::filesystem::last_write_time(
        cache.root() + "/" + key.substr(0, 2) + "/" + key + ".json",
        std::filesystem::file_time_type::clock::now() -
            std::chrono::hours(age));
}

} // namespace

TEST(ResultCache, PruneEvictsLeastRecentlyUsedFirst)
{
    core::ResultCache cache(tempRoot("prune_lru"));
    auto [ka, ma] = putEntry(cache, "a");
    auto [kb, mb] = putEntry(cache, "b");
    auto [kc, mc] = putEntry(cache, "c");
    // Stamp distinct ages; store order says nothing about recency.
    ageEntry(cache, ka, 3);
    ageEntry(cache, kb, 2);
    ageEntry(cache, kc, 1);

    // A budget above the total is a pure scan.
    auto scan = cache.prune(std::uint64_t(1) << 40);
    EXPECT_EQ(scan.entries, 3u);
    EXPECT_GT(scan.bytes, 0u);
    EXPECT_EQ(scan.evicted, 0u);
    EXPECT_TRUE(cache.load(ka, ma).has_value());

    // Room for one entry: the two oldest go, newest survives.
    ageEntry(cache, ka, 3);     // load() above refreshed a's recency
    auto st = cache.prune(scan.bytes / 3);
    EXPECT_EQ(st.evicted, 2u);
    EXPECT_EQ(st.bytes - st.evictedBytes, st.bytes / 3);
    EXPECT_FALSE(cache.load(ka, ma).has_value());
    EXPECT_FALSE(cache.load(kb, mb).has_value());
    EXPECT_TRUE(cache.load(kc, mc).has_value());
}

TEST(ResultCache, LoadRefreshesRecencySoHitsSurvivePrune)
{
    core::ResultCache cache(tempRoot("prune_touch"));
    auto [ka, ma] = putEntry(cache, "a");
    auto [kb, mb] = putEntry(cache, "b");
    ageEntry(cache, ka, 2);
    ageEntry(cache, kb, 3);
    // b is older, but a hit makes it the most recently used.
    ASSERT_TRUE(cache.load(kb, mb).has_value());

    auto scan = cache.prune(std::uint64_t(1) << 40);
    ASSERT_EQ(scan.entries, 2u);
    auto st = cache.prune(scan.bytes / 2);
    EXPECT_EQ(st.evicted, 1u);
    EXPECT_FALSE(cache.load(ka, ma).has_value());
    EXPECT_TRUE(cache.load(kb, mb).has_value());
}

TEST(ResultCache, PruneToZeroSparesForeignFiles)
{
    const std::string root = tempRoot("prune_zero");
    core::ResultCache cache(root);
    auto [ka, ma] = putEntry(cache, "a");
    // Files that are not (json, key) pairs are not cache entries.
    std::ofstream(root + "/README") << "not an entry\n";
    std::ofstream(root + "/" + ka.substr(0, 2) + "/orphan.json")
        << "{}\n";

    auto st = cache.prune(0);
    EXPECT_EQ(st.entries, 1u);
    EXPECT_EQ(st.evicted, 1u);
    EXPECT_EQ(st.evictedBytes, st.bytes);
    EXPECT_FALSE(cache.load(ka, ma).has_value());
    EXPECT_TRUE(std::filesystem::exists(root + "/README"));
    EXPECT_TRUE(std::filesystem::exists(root + "/" + ka.substr(0, 2) +
                                        "/orphan.json"));
}

TEST(ResultCache, MaterialUsesLocaleIndependentDoubleForm)
{
    // The canonical material must carry the from_chars/to_chars
    // rendering, never whatever LC_NUMERIC makes of %g.
    auto [material, key] = keyOf({"--cpu-ghz", "2.1"});
    EXPECT_NE(material.find("opt cpu-ghz=2.1000000000000001"),
              std::string::npos)
        << material;
}

namespace
{

/** RAII LC_NUMERIC switch; restores on scope exit. */
class ScopedNumericLocale
{
  public:
    ScopedNumericLocale()
    {
        const char *prev = std::setlocale(LC_NUMERIC, nullptr);
        saved_ = prev ? prev : "C";
        // Whichever comma-decimal locale this host has installed.
        for (const char *name :
             {"de_DE.UTF-8", "de_DE.utf8", "fr_FR.UTF-8", "fr_FR.utf8",
              "es_ES.UTF-8", "es_ES.utf8", "pt_BR.UTF-8", "it_IT.UTF-8",
              "de_DE", "fr_FR"}) {
            if (std::setlocale(LC_NUMERIC, name)) {
                active_ = name;
                break;
            }
        }
    }

    ~ScopedNumericLocale() { std::setlocale(LC_NUMERIC, saved_.c_str()); }

    const char *active() const { return active_; }

  private:
    std::string saved_;
    const char *active_ = nullptr;
};

} // namespace

TEST(ResultCache, KeysAreLocaleIndependent)
{
    // The regression this guards: strtod/%g follow LC_NUMERIC, so the
    // same flags hashed to a different key under a comma-decimal
    // locale — a warm cache went cold (or worse, keys collided) when
    // the daemon and the CLI ran under different locales.
    const std::vector<std::string> args = {"--cpu-ghz", "2.1",
                                           "--bank0-share", "0.35"};
    auto base = keyOf(args);

    ScopedNumericLocale loc;
    if (!loc.active())
        GTEST_SKIP() << "no comma-decimal locale installed";

    auto under = keyOf(args);
    EXPECT_EQ(under.first, base.first);
    EXPECT_EQ(under.second, base.second);

    // Report bytes must stay valid JSON with '.' decimals too.
    stats::JsonWriter w;
    w.value(2.5);
    EXPECT_EQ(w.str(), "2.5");
}

TEST(ResultCache, PruneSkipsEntriesItCannotStat)
{
    // The regression this guards: prune() summed file_size(..., ec)
    // without checking ec, and the error value uintmax_t(-1) inflated
    // the scanned total enough to evict the entire cache.
    const std::string root = tempRoot("prune_stat");
    core::ResultCache cache(root);
    auto [ka, ma] = putEntry(cache, "a");
    auto [kb, mb] = putEntry(cache, "b");

    // A .json whose sibling .key exists but is not statable as a file:
    // fs::exists() passes, fs::file_size() errors.
    std::filesystem::create_directories(root + "/zz");
    std::ofstream(root + "/zz/phantom.json")
        << "{\"schema\":\"cellbw-bench-v3\"}\n";
    std::filesystem::create_directories(root + "/zz/phantom.key");

    auto scan = cache.prune(std::uint64_t(1) << 40);
    EXPECT_EQ(scan.entries, 2u);            // phantom skipped, counted
    EXPECT_LT(scan.bytes, std::uint64_t(1) << 20);
    EXPECT_EQ(scan.evicted, 0u);            // ample budget: evict none
    EXPECT_TRUE(cache.load(ka, ma).has_value());
    EXPECT_TRUE(cache.load(kb, mb).has_value());
}

TEST(ResultCache, TornEntryIsRepairedOnLoad)
{
    const std::string root = tempRoot("torn");
    core::ResultCache cache(root);
    auto [key, material] = putEntry(cache, "a");
    const std::string base =
        root + "/" + key.substr(0, 2) + "/" + key;

    // A crash between the .key and .json writes (or a partial prune)
    // leaves the material without its report.  load() must miss AND
    // remove the stale .key so the entry does not stay half-dead.
    std::filesystem::remove(base + ".json");
    EXPECT_FALSE(cache.load(key, material).has_value());
    EXPECT_FALSE(std::filesystem::exists(base + ".key"));

    // The repaired slot accepts a fresh store.
    auto [key2, material2] = putEntry(cache, "a");
    EXPECT_EQ(key2, key);
    EXPECT_TRUE(cache.load(key, material).has_value());
}

TEST(ResultCache, HashKeyFormat)
{
    std::string k = core::ResultCache::hashKey("anything");
    EXPECT_EQ(k.size(), 16u);
    EXPECT_EQ(k.find_first_not_of("0123456789abcdef"),
              std::string::npos);
    EXPECT_NE(k, core::ResultCache::hashKey("anything else"));
}

/**
 * @file
 * A small self-contained command-line option parser.
 *
 * Every bench and example binary exposes the simulator's structural
 * parameters as flags.  We want `--runs=10 --mb-per-spe=32 --seed=7`
 * style options with typed accessors, defaults, and a generated
 * `--help` text, without external dependencies.
 *
 * Usage:
 * @code
 *   util::Options opts("fig08_spe_mem", "SPE<->memory DMA bandwidth");
 *   opts.addUint("runs", 10, "number of placement-randomized runs");
 *   opts.addBool("csv", false, "emit CSV instead of a table");
 *   if (!opts.parse(argc, argv)) return 1;   // printed help or error
 *   auto runs = opts.getUint("runs");
 * @endcode
 */

#ifndef CELLBW_UTIL_OPTIONS_HH
#define CELLBW_UTIL_OPTIONS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace cellbw::util
{

class Options
{
  public:
    Options(std::string prog, std::string description);

    /** @name Option registration (call before parse()). */
    /** @{ */
    /** Values above @p max fail the parse (32-bit fields pass
     *  UINT_MAX, so 2^32 cannot wrap to 0). */
    void addUint(const std::string &name, std::uint64_t def,
                 const std::string &help,
                 std::uint64_t max = UINT64_MAX);
    /** NaN and infinities fail the parse. */
    void addDouble(const std::string &name, double def,
                   const std::string &help);
    void addBool(const std::string &name, bool def, const std::string &help);
    void addString(const std::string &name, const std::string &def,
                   const std::string &help);
    /** Byte sizes accept K/M/G suffixes. */
    void addBytes(const std::string &name, std::uint64_t def,
                  const std::string &help);
    /** @} */

    /**
     * Parse argv.  Accepts --name=value, --name value, bare --flag for
     * bools, and --no-flag to clear a bool.
     *
     * @return true when the program should continue; false when help was
     *         requested or an error occurred (message already printed).
     */
    bool parse(int argc, const char *const *argv);

    /** @name Typed accessors (valid after parse(); defaults before). */
    /** @{ */
    std::uint64_t getUint(const std::string &name) const;
    double getDouble(const std::string &name) const;
    bool getBool(const std::string &name) const;
    const std::string &getString(const std::string &name) const;
    std::uint64_t getBytes(const std::string &name) const;
    /** @} */

    /** True iff the user explicitly supplied the option. */
    bool isSet(const std::string &name) const;

    /**
     * Mark @p name as result-neutral: the option steers output or host
     * scheduling (--json, --csv, --jobs) but can never change computed
     * results.  Structured exporters (the v2 report config section)
     * and the result-cache key skip result-neutral options, so e.g.
     * two runs differing only in --jobs share one cache entry.
     */
    void setResultNeutral(const std::string &name);

    /** One registered option, as seen by structured exporters. */
    struct OptionInfo
    {
        enum class Type { Uint, Double, Bool, String, Bytes };
        std::string name;
        Type type;
        std::string text;   ///< canonical textual value
        bool set;           ///< explicitly supplied on the command line
        bool resultNeutral; ///< see setResultNeutral()
    };

    /** All registered options, in registration order. */
    std::vector<OptionInfo> list() const;

    /** Render the --help text. */
    std::string helpText() const;

    /** Positional (non-option) arguments, in order. */
    const std::vector<std::string> &positional() const { return positional_; }

    /** Program name, for caller-side error messages. */
    const std::string &prog() const { return prog_; }

  private:
    enum class Kind { Uint, Double, Bool, String, Bytes };

    struct Opt
    {
        Kind kind;
        std::string help;
        std::string value;      // canonical textual value
        std::string defValue;
        bool set = false;
        bool resultNeutral = false;
        std::uint64_t max = UINT64_MAX;     // Uint only
    };

    const Opt &find(const std::string &name, Kind kind) const;
    void add(const std::string &name, Kind kind, std::string def,
             const std::string &help);
    bool assign(const std::string &name, const std::string &value);

    std::string prog_;
    std::string description_;
    std::map<std::string, Opt> opts_;
    std::vector<std::string> order_;
    std::vector<std::string> positional_;
};

} // namespace cellbw::util

#endif // CELLBW_UTIL_OPTIONS_HH

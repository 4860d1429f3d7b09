#include "util/options.hh"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "util/strings.hh"

namespace cellbw::util
{

Options::Options(std::string prog, std::string description)
    : prog_(std::move(prog)), description_(std::move(description))
{
}

void
Options::add(const std::string &name, Kind kind, std::string def,
             const std::string &help)
{
    if (opts_.count(name))
        throw std::logic_error("duplicate option: " + name);
    Opt o;
    o.kind = kind;
    o.help = help;
    o.value = def;
    o.defValue = std::move(def);
    opts_.emplace(name, std::move(o));
    order_.push_back(name);
}

void
Options::addUint(const std::string &name, std::uint64_t def,
                 const std::string &help, std::uint64_t max)
{
    add(name, Kind::Uint, std::to_string(def), help);
    opts_.at(name).max = max;
}

void
Options::addDouble(const std::string &name, double def,
                   const std::string &help)
{
    // to_chars, not "%g": the default text feeds --help, report config
    // sections, and the cache material, and %g renders "2,1" under a
    // comma-decimal LC_NUMERIC.  Precision 6 matches C-locale %g.
    char buf[40];
    auto res = std::to_chars(buf, buf + sizeof(buf), def,
                             std::chars_format::general, 6);
    add(name, Kind::Double, std::string(buf, res.ptr), help);
}

void
Options::addBool(const std::string &name, bool def, const std::string &help)
{
    add(name, Kind::Bool, def ? "true" : "false", help);
}

void
Options::addString(const std::string &name, const std::string &def,
                   const std::string &help)
{
    add(name, Kind::String, def, help);
}

void
Options::addBytes(const std::string &name, std::uint64_t def,
                  const std::string &help)
{
    add(name, Kind::Bytes, bytesToString(def), help);
}

bool
Options::assign(const std::string &name, const std::string &value)
{
    auto it = opts_.find(name);
    if (it == opts_.end()) {
        std::fprintf(stderr, "%s: unknown option --%s\n", prog_.c_str(),
                     name.c_str());
        return false;
    }
    Opt &o = it->second;
    try {
        // Validate eagerly so errors surface at parse time.  The
        // strict parsers reject signs and trailing garbage; a bare
        // std::stoull would wrap "-1" to UINT64_MAX and accept "8x".
        switch (o.kind) {
          case Kind::Uint:
            if (parseUint64(value) > o.max)
                throw std::out_of_range("uint option too large");
            break;
          case Kind::Double: {
            // from_chars, not stod: stod follows LC_NUMERIC, and a
            // comma-decimal locale would reject "2.1" as trailing
            // garbage (and accept "2,1", which nothing else parses).
            std::string v = trim(value);
            double parsed = 0.0;
            auto res = std::from_chars(v.data(), v.data() + v.size(),
                                       parsed);
            if (res.ec != std::errc() ||
                res.ptr != v.data() + v.size() || !std::isfinite(parsed))
                throw std::invalid_argument("bad double");
            break;
          }
          case Kind::Bytes:
            (void)parseByteSize(value);
            break;
          case Kind::Bool: {
            std::string v = toLower(value);
            if (v != "true" && v != "false" && v != "1" && v != "0" &&
                v != "yes" && v != "no") {
                throw std::invalid_argument("bad bool");
            }
            break;
          }
          case Kind::String:
            break;
        }
    } catch (const std::exception &) {
        std::fprintf(stderr, "%s: bad value for --%s: '%s'\n", prog_.c_str(),
                     name.c_str(), value.c_str());
        return false;
    }
    o.value = value;
    o.set = true;
    return true;
}

bool
Options::parse(int argc, const char *const *argv)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "-h" || arg == "--help") {
            std::fputs(helpText().c_str(), stdout);
            return false;
        }
        if (arg.rfind("--", 0) != 0) {
            positional_.push_back(arg);
            continue;
        }
        std::string body = arg.substr(2);
        std::string name;
        std::string value;
        bool have_value = false;
        auto eq = body.find('=');
        if (eq != std::string::npos) {
            name = body.substr(0, eq);
            value = body.substr(eq + 1);
            have_value = true;
        } else {
            name = body;
        }
        auto it = opts_.find(name);
        if (it == opts_.end() && !have_value && name.rfind("no-", 0) == 0) {
            // --no-flag for bools.
            std::string base = name.substr(3);
            auto bit = opts_.find(base);
            if (bit != opts_.end() && bit->second.kind == Kind::Bool) {
                if (!assign(base, "false"))
                    return false;
                continue;
            }
        }
        if (it != opts_.end() && it->second.kind == Kind::Bool &&
            !have_value) {
            if (!assign(name, "true"))
                return false;
            continue;
        }
        if (!have_value) {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s: option --%s needs a value\n",
                             prog_.c_str(), name.c_str());
                return false;
            }
            value = argv[++i];
        }
        if (!assign(name, value))
            return false;
    }
    return true;
}

const Options::Opt &
Options::find(const std::string &name, Kind kind) const
{
    auto it = opts_.find(name);
    if (it == opts_.end())
        throw std::logic_error("option not registered: " + name);
    if (it->second.kind != kind)
        throw std::logic_error("option type mismatch: " + name);
    return it->second;
}

std::uint64_t
Options::getUint(const std::string &name) const
{
    return parseUint64(find(name, Kind::Uint).value);
}

double
Options::getDouble(const std::string &name) const
{
    // from_chars, not stod: under a comma-decimal LC_NUMERIC stod
    // reads "2.1" as 2 — the simulated machine would silently change
    // with the host locale.
    const std::string v = trim(find(name, Kind::Double).value);
    double parsed = 0.0;
    std::from_chars(v.data(), v.data() + v.size(), parsed);
    return parsed;
}

bool
Options::getBool(const std::string &name) const
{
    std::string v = toLower(find(name, Kind::Bool).value);
    return v == "true" || v == "1" || v == "yes";
}

const std::string &
Options::getString(const std::string &name) const
{
    return find(name, Kind::String).value;
}

std::uint64_t
Options::getBytes(const std::string &name) const
{
    return parseByteSize(find(name, Kind::Bytes).value);
}

bool
Options::isSet(const std::string &name) const
{
    auto it = opts_.find(name);
    return it != opts_.end() && it->second.set;
}

void
Options::setResultNeutral(const std::string &name)
{
    auto it = opts_.find(name);
    if (it == opts_.end())
        throw std::logic_error("option not registered: " + name);
    it->second.resultNeutral = true;
}

std::vector<Options::OptionInfo>
Options::list() const
{
    std::vector<OptionInfo> out;
    out.reserve(order_.size());
    for (const auto &name : order_) {
        const Opt &o = opts_.at(name);
        OptionInfo info;
        info.name = name;
        switch (o.kind) {
          case Kind::Uint:
            info.type = OptionInfo::Type::Uint;
            break;
          case Kind::Double:
            info.type = OptionInfo::Type::Double;
            break;
          case Kind::Bool:
            info.type = OptionInfo::Type::Bool;
            break;
          case Kind::String:
            info.type = OptionInfo::Type::String;
            break;
          case Kind::Bytes:
            info.type = OptionInfo::Type::Bytes;
            break;
        }
        info.text = o.value;
        info.set = o.set;
        info.resultNeutral = o.resultNeutral;
        out.push_back(std::move(info));
    }
    return out;
}

std::string
Options::helpText() const
{
    std::string out = prog_ + " - " + description_ + "\n\nOptions:\n";
    for (const auto &name : order_) {
        const Opt &o = opts_.at(name);
        out += format("  --%-24s %s (default: %s)\n", name.c_str(),
                      o.help.c_str(), o.defValue.c_str());
    }
    out += format("  --%-24s %s\n", "help", "show this message");
    return out;
}

} // namespace cellbw::util

#include "serve/protocol.hh"

#include <charconv>
#include <cmath>
#include <functional>
#include <map>
#include <sstream>

namespace graphabcd {

std::vector<std::string>
tokenize(const std::string &line)
{
    std::istringstream iss(line);
    std::vector<std::string> out;
    std::string tok;
    while (iss >> tok)
        out.push_back(tok);
    return out;
}

std::optional<std::uint64_t>
parseUnsigned(std::string_view s, std::uint64_t lo, std::uint64_t hi)
{
    std::uint64_t value = 0;
    const char *end = s.data() + s.size();
    const auto [ptr, ec] = std::from_chars(s.data(), end, value);
    if (s.empty() || ec != std::errc() || ptr != end || value < lo ||
        value > hi)
        return std::nullopt;
    return value;
}

std::optional<double>
parseReal(std::string_view s)
{
    double value = 0.0;
    const char *end = s.data() + s.size();
    const auto [ptr, ec] = std::from_chars(s.data(), end, value);
    if (s.empty() || ec != std::errc() || ptr != end ||
        !std::isfinite(value))
        return std::nullopt;
    return value;
}

namespace {

/** Sets one field from a value; @return an error message or "". */
using Setter = std::function<std::string(const std::string &)>;

constexpr std::uint64_t kU32 = std::numeric_limits<std::uint32_t>::max();

/** Apply tokens[first..] as key=value pairs through `setters`. */
bool
applyParams(const std::vector<std::string> &tokens, std::size_t first,
            const std::map<std::string, Setter> &setters,
            std::string *error)
{
    for (std::size_t i = first; i < tokens.size(); i++) {
        const std::string &tok = tokens[i];
        const auto eq = tok.find('=');
        std::string why;
        if (eq == std::string::npos || eq == 0) {
            why = "want key=value";
        } else {
            const auto it = setters.find(tok.substr(0, eq));
            why = it == setters.end() ? "unknown key"
                                      : it->second(tok.substr(eq + 1));
        }
        if (!why.empty()) {
            *error = "bad parameter '" + tok + "': " + why;
            return false;
        }
    }
    return true;
}

template <typename T>
Setter
integer(T *field, std::uint64_t lo, std::uint64_t hi)
{
    return [=](const std::string &v) -> std::string {
        const auto n = parseUnsigned(v, lo, hi);
        if (!n) {
            return "want an integer in [" + std::to_string(lo) + ", " +
                   std::to_string(hi) + "]";
        }
        *field = static_cast<T>(*n);
        return "";
    };
}

Setter
real(double *field)
{
    return [=](const std::string &v) -> std::string {
        const auto x = parseReal(v);
        if (!x)
            return "want a finite number";
        *field = *x;
        return "";
    };
}

Setter
flag(bool *field)
{
    return [=](const std::string &v) -> std::string {
        if (v != "0" && v != "1")
            return "want 0 or 1";
        *field = v == "1";
        return "";
    };
}

Setter
text(std::string *field)
{
    return [=](const std::string &v) -> std::string {
        *field = v;
        return "";
    };
}

} // namespace

bool
parseLoad(const std::vector<std::string> &tokens, LoadSpec *out,
          std::string *error)
{
    if (tokens.size() < 3) {
        *error = "usage: LOAD <name> <dataset-or-file> [key=value...]";
        return false;
    }
    out->name = tokens[1];
    out->source = tokens[2];
    const std::map<std::string, Setter> setters = {
        {"scale",
         [out](const std::string &v) -> std::string {
             const auto x = parseReal(v);
             if (!x || *x <= 0.0)
                 return "want a positive number";
             out->scale = *x;
             return "";
         }},
        {"seed", integer(&out->seed, 0,
                         std::numeric_limits<std::uint64_t>::max())},
        {"block-size", integer(&out->blockSize, 1, kU32)},
        {"undirected", flag(&out->undirected)},
        {"layout",
         [out](const std::string &v) -> std::string {
             const auto l = parseGraphLayout(v);
             if (!l)
                 return "want plain or compressed";
             out->layout.layout = *l;
             return "";
         }},
        {"reorder",
         [out](const std::string &v) -> std::string {
             const auto r = parseVertexReorder(v);
             if (!r)
                 return "want none or hub";
             out->layout.reorder = *r;
             return "";
         }},
    };
    return applyParams(tokens, 3, setters, error);
}

bool
parseRun(const std::vector<std::string> &tokens, JobRequest *out,
         std::string *error)
{
    if (tokens.size() < 3) {
        *error = "usage: RUN <graph> <algo> [key=value...]";
        return false;
    }
    out->graph = tokens[1];
    out->algo = tokens[2];
    EngineOptions &opt = out->options;
    const std::map<std::string, Setter> setters = {
        {"engine", text(&out->engine)},
        {"tenant", text(&out->tenant)},
        {"source", integer(&out->source, 0, kU32)},
        {"k", integer(&out->k, 0, kU32)},
        {"priority", real(&out->priority)},
        {"timeout", real(&out->timeoutSeconds)},
        {"tolerance", real(&opt.tolerance)},
        {"max-epochs", real(&opt.maxEpochs)},
        {"threads", integer(&opt.numThreads, 1, kU32)},
        {"fragments", integer(&opt.fragments, 1, kU32)},
        {"cached", flag(&out->allowCached)},
        {"warm", flag(&out->allowWarmStart)},
        {"schedule",
         [&opt](const std::string &v) -> std::string {
             const auto s = parseSchedule(v);
             if (!s)
                 return "want cyclic, priority or obim";
             opt.schedule = *s;
             return "";
         }},
    };
    return applyParams(tokens, 3, setters, error);
}

} // namespace graphabcd

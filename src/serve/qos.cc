#include "serve/qos.hh"

#include <cstddef>
#include <string>
#include <vector>

#include "serve/protocol.hh"

namespace graphabcd {

namespace {

std::vector<std::string>
split(const std::string &s, char sep)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (true) {
        const std::size_t pos = s.find(sep, start);
        if (pos == std::string::npos) {
            out.push_back(s.substr(start));
            return out;
        }
        out.push_back(s.substr(start, pos - start));
        start = pos + 1;
    }
}

void
fail(std::string *error, const std::string &clause, const char *why)
{
    if (error)
        *error = "bad tenant spec '" + clause + "': " + why;
}

} // namespace

bool
parseTenantQosSpecs(const std::string &spec,
                    std::map<std::string, TenantQos> *out,
                    std::string *error)
{
    std::map<std::string, TenantQos> parsed;
    for (const std::string &clause : split(spec, ',')) {
        if (clause.empty())
            continue;   // tolerate stray commas
        const std::vector<std::string> fields = split(clause, ':');
        if (fields[0].empty()) {
            fail(error, clause, "empty tenant name");
            return false;
        }
        if (fields.size() < 2 || fields.size() > 4) {
            fail(error, clause,
                 "want name:weight[:maxInFlight[:maxQueued]]");
            return false;
        }
        TenantQos qos;
        const auto weight = parseReal(fields[1]);
        if (!weight || *weight <= 0.0) {
            fail(error, clause, "weight must be a positive number");
            return false;
        }
        qos.weight = *weight;
        if (fields.size() >= 3) {
            const auto in_flight = parseUnsigned(fields[2]);
            if (!in_flight) {
                fail(error, clause, "maxInFlight must be a non-negative int");
                return false;
            }
            qos.maxInFlight = *in_flight;
        }
        if (fields.size() >= 4) {
            const auto queued = parseUnsigned(fields[3]);
            if (!queued) {
                fail(error, clause, "maxQueued must be a non-negative int");
                return false;
            }
            qos.maxQueued = *queued;
        }
        parsed[fields[0]] = qos;
    }
    for (auto &entry : parsed)
        (*out)[entry.first] = entry.second;
    return true;
}

} // namespace graphabcd

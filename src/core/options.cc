#include "core/options.hh"

namespace graphabcd {

const char *
to_string(Schedule schedule)
{
    switch (schedule) {
      case Schedule::Cyclic:
        return "cyclic";
      case Schedule::Priority:
        return "priority";
      case Schedule::Obim:
        return "obim";
    }
    return "?";
}

std::optional<Schedule>
parseSchedule(std::string_view name)
{
    for (Schedule s : {Schedule::Cyclic, Schedule::Priority, Schedule::Obim}) {
        if (name == to_string(s))
            return s;
    }
    return std::nullopt;
}

const char *
to_string(ExecMode mode)
{
    switch (mode) {
      case ExecMode::Async:
        return "async";
      case ExecMode::Barrier:
        return "barrier";
      case ExecMode::Bsp:
        return "bsp";
    }
    return "?";
}

} // namespace graphabcd

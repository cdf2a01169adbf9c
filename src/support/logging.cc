#include "support/logging.hh"

#include <cstdio>

namespace predilp
{

void
warn(const std::string &msg)
{
    std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

} // namespace predilp

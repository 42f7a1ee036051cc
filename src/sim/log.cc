/**
 * @file
 * Error reporting implementation.
 */

#include "sim/log.hh"

#include <cstdlib>
#include <iostream>

namespace sonuma::sim {

void
fatal(const std::string &msg)
{
    throw FatalError(msg);
}

void
panic(const std::string &msg)
{
    std::cerr << "panic: " << msg << std::endl;
    std::abort();
}

} // namespace sonuma::sim

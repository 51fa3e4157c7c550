#include "model/perplexity.hh"

#include <cmath>

namespace longsight {

double
pplIncreasePct(double lost_mass)
{
    return 100.0 * (std::exp(lost_mass) - 1.0);
}

} // namespace longsight

/**
 * @file
 * The benchmark's own random source. Deliberately independent of the
 * program's stats::Rng and of the standard library's distributions
 * (whose algorithms are implementation-defined), so a seed names the
 * same inputs on every toolchain and across every change to the
 * program.
 */

#ifndef PERFBENCH_RNG_HH
#define PERFBENCH_RNG_HH

#include <cmath>
#include <cstdint>

namespace perfbench {

/** xoshiro256** seeded through splitmix64. */
class Rng
{
  public:
    explicit Rng(uint64_t seed)
    {
        for (uint64_t &word : s_) {
            seed += 0x9e3779b97f4a7c15ULL;
            uint64_t z = seed;
            z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
            z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
            word = z ^ (z >> 31);
        }
    }

    uint64_t
    next()
    {
        const uint64_t result = rotl(s_[1] * 5, 7) * 9;
        const uint64_t t = s_[1] << 17;
        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = rotl(s_[3], 45);
        return result;
    }

    /** Uniform on [0, 1). */
    double uniform() { return static_cast<double>(next() >> 11) * 0x1p-53; }

    /** Uniform integer on [0, n). */
    uint64_t below(uint64_t n) { return next() % n; }

    /** Standard normal (Box-Muller, one value per call). */
    double
    normal()
    {
        const double u1 = 1.0 - uniform();  // (0, 1]
        const double u2 = uniform();
        return std::sqrt(-2.0 * std::log(u1)) *
               std::cos(6.283185307179586 * u2);
    }

    /** Exponential with the given mean. */
    double exponential(double mean) { return -mean * std::log(1.0 - uniform()); }

  private:
    static uint64_t rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
    uint64_t s_[4];
};

} // namespace perfbench

#endif // PERFBENCH_RNG_HH

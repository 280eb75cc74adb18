#include <sched.h>
#include <sys/resource.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>

#include "bench.h"
#include "serve/run.h"

namespace qdb {

void
Outcome::fail_check(const std::string& why)
{
    correct = false;
    std::cerr << "qdbench: check failed: " << why << "\n";
}

double
median(std::vector<double> v)
{
    if (v.empty()) {
        return 0;
    }
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty()) {
        return 0;
    }
    std::sort(v.begin(), v.end());
    const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
    const std::size_t i = rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
    return v[std::min(i, v.size() - 1)];
}

double
sum(const std::vector<double>& v)
{
    double s = 0;
    for (const double x : v) {
        s += x;
    }
    return s;
}

std::uint64_t
SplitMix::next()
{
    std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

double
SplitMix::uniform()
{
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

SplitMix
rng_for(std::uint64_t seed, std::uint64_t stream, std::uint64_t index)
{
    SplitMix mix{seed};
    mix.state ^= SplitMix{stream * 0x2545F4914F6CDD1DULL + index}.next();
    mix.next();
    return mix;
}

int
nproc()
{
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
        return std::max(1, CPU_COUNT(&set));
    }
    return 1;
}

int
cpu_slots()
{
    return std::min(nproc(), 8);
}

std::string
cpu_model()
{
#if defined(__x86_64__) || defined(__i386__)
    unsigned regs[12] = {};
    unsigned max_leaf = __get_cpuid_max(0x80000000U, nullptr);
    if (max_leaf >= 0x80000004U) {
        for (unsigned i = 0; i < 3; ++i) {
            __get_cpuid(0x80000002U + i, &regs[4 * i], &regs[4 * i + 1],
                        &regs[4 * i + 2], &regs[4 * i + 3]);
        }
        char brand[49] = {};
        std::memcpy(brand, regs, 48);
        std::string s(brand);
        const auto b = s.find_first_not_of(' ');
        const auto e = s.find_last_not_of(' ');
        return b == std::string::npos ? "unknown" : s.substr(b, e - b + 1);
    }
#endif
    return "unknown";
}

double
peak_rss_mb_self()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string
read_file(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        return {};
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

bool
write_file(const std::string& path, const std::string& text)
{
    std::ofstream out(path, std::ios::binary);
    out << text;
    return static_cast<bool>(out);
}

std::string
json_number(double v)
{
    if (!std::isfinite(v)) {
        return "null";
    }
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
json_string(const std::string& s)
{
    std::string out = "\"";
    out += qd::serve::json_escape(s);
    out += '"';
    return out;
}

}  // namespace qdb

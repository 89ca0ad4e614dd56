#include "reference_loop.hh"

#include <chrono>
#include <cstdint>
#include <queue>
#include <vector>

#include "bench_math.hh"

namespace pb {

namespace {

/** Keeps the compiler from dropping the reference work. */
volatile double gSink = 0.0;

double
heapMix()
{
    std::priority_queue<double> heap;
    std::uint32_t x = 12345;
    double acc = 0.0;
    for (int i = 0; i < 60000; ++i) {
        x = x * 1664525u + 1013904223u;
        heap.push(double(x >> 8));
        if (heap.size() > 4096) {
            acc += heap.top();
            heap.pop();
        }
    }
    return acc;
}

double
stencil()
{
    constexpr int kSide = 512;
    static std::vector<float> in(kSide * kSide), out(kSide * kSide);
    for (int i = 0; i < kSide * kSide; ++i)
        in[i] = float((i * 2654435761u) >> 24);
    for (int y = 1; y < kSide - 1; ++y) {
        for (int x = 1; x < kSide - 1; ++x) {
            const float* p = &in[y * kSide + x];
            out[y * kSide + x] = 0.25f * p[0]
                + 0.125f * (p[-1] + p[1] + p[-kSide] + p[kSide])
                + 0.0625f * (p[-kSide - 1] + p[-kSide + 1]
                             + p[kSide - 1] + p[kSide + 1]);
        }
    }
    return out[kSide * kSide / 2 + 7];
}

} // namespace

double
referenceLoopSeconds()
{
    std::vector<double> secs;
    for (int rep = 0; rep < 3; ++rep) {
        auto t0 = std::chrono::steady_clock::now();
        gSink = gSink + heapMix() + stencil();
        secs.push_back(std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - t0)
                           .count());
    }
    return median(secs);
}

} // namespace pb

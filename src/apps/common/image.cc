#include "apps/common/image.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace vp {

std::uint64_t
GrayImage::checksum() const
{
    std::uint64_t h = 1469598103934665603ULL;
    for (std::uint8_t p : pixels_) {
        h ^= p;
        h *= 1099511628211ULL;
    }
    h ^= static_cast<std::uint64_t>(width_) << 32 | height_;
    return h;
}

bool
RgbImage::writePpm(const std::string& path) const
{
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (!f)
        return false;
    std::fprintf(f, "P6\n%d %d\n255\n", width_, height_);
    std::fwrite(pixels_.data(), 1, pixels_.size(), f);
    std::fclose(f);
    return true;
}

RgbImage
makeTestImage(int w, int h, std::uint64_t seed,
              const std::vector<std::pair<int, int>>& faces)
{
    RgbImage img(w, h);
    Rng rng(seed);
    // Low-frequency phase offsets make every image distinct.
    double px = rng.nextRange(0.0, 6.28);
    double py = rng.nextRange(0.0, 6.28);
    for (int y = 0; y < h; ++y) {
        for (int x = 0; x < w; ++x) {
            double gx = 0.5 + 0.5 * std::sin(px + x * 0.013);
            double gy = 0.5 + 0.5 * std::cos(py + y * 0.017);
            int noise = static_cast<int>(rng.nextBelow(32));
            img.at(x, y, 0) = static_cast<std::uint8_t>(
                std::min(255.0, gx * 180 + noise));
            img.at(x, y, 1) = static_cast<std::uint8_t>(
                std::min(255.0, gy * 160 + noise));
            img.at(x, y, 2) = static_cast<std::uint8_t>(
                std::min(255.0, (gx + gy) * 90 + noise));
        }
    }
    // Face markers: bright 24x24 squares with a darker inner frame,
    // a pattern the synthetic LBP cascade is trained to accept.
    for (const auto& [cx, cy] : faces) {
        for (int dy = -12; dy < 12; ++dy) {
            for (int dx = -12; dx < 12; ++dx) {
                int x = cx + dx, y = cy + dy;
                if (x < 0 || y < 0 || x >= w || y >= h)
                    continue;
                bool frame = std::abs(dx) > 8 || std::abs(dy) > 8;
                std::uint8_t v = frame ? 240 : 60;
                img.at(x, y, 0) = v;
                img.at(x, y, 1) = v;
                img.at(x, y, 2) = v;
            }
        }
    }
    return img;
}

GrayImage
referenceGrayscale(const RgbImage& src)
{
    GrayImage out(src.width(), src.height());
    for (int y = 0; y < src.height(); ++y) {
        for (int x = 0; x < src.width(); ++x) {
            int v = (299 * src.at(x, y, 0) + 587 * src.at(x, y, 1)
                     + 114 * src.at(x, y, 2)) / 1000;
            out.at(x, y) = static_cast<std::uint8_t>(v);
        }
    }
    return out;
}

GrayImage
referenceHistEq(const GrayImage& src)
{
    std::vector<std::uint64_t> hist(256, 0);
    for (std::uint8_t p : src.pixels())
        ++hist[p];
    std::vector<std::uint64_t> cdf(256, 0);
    std::uint64_t run = 0;
    std::uint64_t cdf_min = 0;
    for (int i = 0; i < 256; ++i) {
        run += hist[i];
        cdf[i] = run;
        if (cdf_min == 0 && run > 0)
            cdf_min = run;
    }
    std::uint64_t denom = src.pixels().size() - cdf_min;
    // One division per gray level, not per pixel. Levels absent from
    // the image get an unused (wrapped) entry.
    std::uint8_t lut[256];
    for (int i = 0; i < 256; ++i)
        lut[i] = denom == 0
            ? static_cast<std::uint8_t>(i)
            : static_cast<std::uint8_t>((cdf[i] - cdf_min) * 255 / denom);
    GrayImage out(src.width(), src.height());
    for (std::size_t i = 0; i < src.pixels().size(); ++i)
        out.pixels()[i] = lut[src.pixels()[i]];
    return out;
}

GrayImage
referenceDownsample(const GrayImage& src)
{
    int w = src.width() / 2;
    int h = src.height() / 2;
    GrayImage out(w, h);
    for (int y = 0; y < h; ++y) {
        for (int x = 0; x < w; ++x) {
            int sum = src.at(2 * x, 2 * y) + src.at(2 * x + 1, 2 * y)
                + src.at(2 * x, 2 * y + 1)
                + src.at(2 * x + 1, 2 * y + 1);
            out.at(x, y) = static_cast<std::uint8_t>(sum / 4);
        }
    }
    return out;
}

} // namespace vp

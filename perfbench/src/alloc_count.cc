/**
 * @file
 * Counting global allocator for alloc.per_request: every replaceable
 * operator new forwards to malloc and, only while countAllocs() is
 * running its body, bumps one shared counter. Outside that window an
 * allocation pays one relaxed load of a flag nobody writes, so timed
 * runs carry no shared-counter traffic; the counted runs are extra
 * repetitions of the traced pass and are never timed.
 */

#include <atomic>
#include <cstdlib>
#include <new>

#include "perfbench.hh"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocs{0};

void
count()
{
    if (g_counting.load(std::memory_order_relaxed))
        g_allocs.fetch_add(1, std::memory_order_relaxed);
}

void *
countedAlloc(std::size_t size)
{
    count();
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void *
countedAlignedAlloc(std::size_t size, std::align_val_t align)
{
    count();
    const auto a = static_cast<std::size_t>(align);
    // aligned_alloc wants a size that is a multiple of the alignment.
    const std::size_t rounded = ((size ? size : 1) + a - 1) / a * a;
    if (void *p = std::aligned_alloc(a, rounded))
        return p;
    throw std::bad_alloc();
}

} // namespace

std::uint64_t
perfbench::countAllocs(const std::function<void()> &body)
{
    struct Window
    {
        Window() { g_counting.store(true); }
        ~Window() { g_counting.store(false); }
    };
    const std::uint64_t before = g_allocs.load();
    {
        const Window window;
        body();
    }
    return g_allocs.load() - before;
}

void *operator new(std::size_t n) { return countedAlloc(n); }
void *operator new[](std::size_t n) { return countedAlloc(n); }
void *
operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    try {
        return countedAlloc(n);
    } catch (...) {
        return nullptr;
    }
}
void *
operator new[](std::size_t n, const std::nothrow_t &) noexcept
{
    try {
        return countedAlloc(n);
    } catch (...) {
        return nullptr;
    }
}
void *
operator new(std::size_t n, std::align_val_t a)
{
    return countedAlignedAlloc(n, a);
}
void *
operator new[](std::size_t n, std::align_val_t a)
{
    return countedAlignedAlloc(n, a);
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void
operator delete[](void *p, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

/**
 * @file
 * Small move-only callable with inline storage.
 *
 * The event calendar stores one callback per scheduled event. With
 * std::function every capture larger than the implementation's tiny
 * SBO buffer costs a heap allocation per event — the dominant
 * steady-state allocation of the whole simulator. SmallFn keeps any
 * callable up to kInlineBytes (64 bytes, sized for the disk model's
 * largest hot-path capture: [this, IoRequest copy, Tick, checker
 * token]) inside the object itself and falls back to the heap only
 * for oversized or over-aligned callables, so the kernel's
 * schedule/fire cycle is allocation-free once the calendar slab has
 * grown to its peak.
 */

#ifndef IDP_SIM_SMALL_FN_HH
#define IDP_SIM_SMALL_FN_HH

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace idp {
namespace sim {

/** Move-only void() callable with 64 bytes of inline storage. */
class SmallFn
{
  public:
    /** Inline capacity; larger callables are heap-allocated. */
    static constexpr std::size_t kInlineBytes = 64;

    SmallFn() noexcept = default;

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, SmallFn> &&
                  std::is_invocable_r_v<void, std::decay_t<F> &>>>
    SmallFn(F &&f)
    {
        using Fn = std::decay_t<F>;
        if constexpr (sizeof(Fn) <= kInlineBytes &&
                      alignof(Fn) <= alignof(std::max_align_t) &&
                      std::is_nothrow_move_constructible_v<Fn>) {
            ::new (static_cast<void *>(storage_.buf)) Fn(
                std::forward<F>(f));
            mgr_ = &inlineManager<Fn>;
        } else {
            storage_.heap = new Fn(std::forward<F>(f));
            mgr_ = &heapManager<Fn>;
        }
    }

    SmallFn(SmallFn &&other) noexcept
    {
        if (other.mgr_)
            other.mgr_(Op::MoveTo, &other, this);
    }

    SmallFn &
    operator=(SmallFn &&other) noexcept
    {
        if (this != &other) {
            reset();
            if (other.mgr_)
                other.mgr_(Op::MoveTo, &other, this);
        }
        return *this;
    }

    SmallFn(const SmallFn &) = delete;
    SmallFn &operator=(const SmallFn &) = delete;

    ~SmallFn() { reset(); }

    /**
     * Construct a callable in place, destroying any current one. The
     * hot path: the calendar emplaces the handler straight into the
     * slab entry, so no type-erased move is ever dispatched.
     */
    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, SmallFn> &&
                  std::is_invocable_r_v<void, std::decay_t<F> &>>>
    void
    emplace(F &&f)
    {
        reset();
        using Fn = std::decay_t<F>;
        if constexpr (sizeof(Fn) <= kInlineBytes &&
                      alignof(Fn) <= alignof(std::max_align_t) &&
                      std::is_nothrow_move_constructible_v<Fn>) {
            ::new (static_cast<void *>(storage_.buf)) Fn(
                std::forward<F>(f));
            mgr_ = &inlineManager<Fn>;
        } else {
            storage_.heap = new Fn(std::forward<F>(f));
            mgr_ = &heapManager<Fn>;
        }
    }

    /**
     * Invoke, then destroy, in a single dispatch (the calendar's
     * fire path). Leaves this SmallFn empty.
     */
    void
    invokeDestroy()
    {
        const Manager mgr = mgr_;
        mgr_ = nullptr;
        mgr(Op::InvokeDestroy, this, nullptr);
    }

    /** Destroy the held callable (if any); becomes empty. */
    void
    reset() noexcept
    {
        if (mgr_) {
            mgr_(Op::Destroy, this, nullptr);
            mgr_ = nullptr;
        }
    }

    explicit operator bool() const noexcept { return mgr_ != nullptr; }

    /** Invoke. Calling an empty SmallFn is undefined (as with any
     *  empty callback slot; the calendar never fires empty entries). */
    void operator()() { mgr_(Op::Invoke, this, nullptr); }

  private:
    enum class Op
    {
        Invoke,
        MoveTo,
        Destroy,
        InvokeDestroy,
    };

    using Manager = void (*)(Op, SmallFn *, SmallFn *);

    union Storage
    {
        alignas(std::max_align_t) unsigned char buf[kInlineBytes];
        void *heap;
    };

    template <typename Fn>
    static void
    inlineManager(Op op, SmallFn *self, SmallFn *dest)
    {
        Fn *fn = std::launder(
            reinterpret_cast<Fn *>(self->storage_.buf));
        switch (op) {
          case Op::Invoke:
            (*fn)();
            break;
          case Op::MoveTo:
            ::new (static_cast<void *>(dest->storage_.buf)) Fn(
                std::move(*fn));
            dest->mgr_ = self->mgr_;
            fn->~Fn();
            self->mgr_ = nullptr;
            break;
          case Op::Destroy:
            fn->~Fn();
            break;
          case Op::InvokeDestroy:
            (*fn)();
            fn->~Fn();
            break;
        }
    }

    template <typename Fn>
    static void
    heapManager(Op op, SmallFn *self, SmallFn *dest)
    {
        Fn *fn = static_cast<Fn *>(self->storage_.heap);
        switch (op) {
          case Op::Invoke:
            (*fn)();
            break;
          case Op::MoveTo:
            dest->storage_.heap = fn;
            dest->mgr_ = self->mgr_;
            self->mgr_ = nullptr;
            break;
          case Op::Destroy:
            delete fn;
            break;
          case Op::InvokeDestroy:
            (*fn)();
            delete fn;
            break;
        }
    }

    Storage storage_;
    Manager mgr_ = nullptr;
};

} // namespace sim
} // namespace idp

#endif // IDP_SIM_SMALL_FN_HH

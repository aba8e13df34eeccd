/**
 * @file
 * A move-only callable wrapper with a large inline buffer.
 *
 * The timing layer chains latencies by passing continuations down
 * the memory hierarchy; with std::function each hand-off whose
 * captures exceed the 16-byte libstdc++ SBO costs a heap allocation,
 * and the malloc/free pair shows up directly in the simulator's host
 * profile. InplaceFn stores callables up to Cap bytes inline, boxing
 * only oversized ones; storesInline<F> lets a hot call site
 * static_assert that its closure never takes the boxed path. Move-only
 * on purpose: continuations are consumed exactly once, and
 * copyability is what forces std::function to reject move-only
 * captures.
 */

#ifndef PMEMSPEC_COMMON_INPLACE_FN_HH
#define PMEMSPEC_COMMON_INPLACE_FN_HH

#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace pmemspec
{

template <typename Sig, std::size_t Cap = 64>
class InplaceFn;

template <typename R, typename... Args, std::size_t Cap>
class InplaceFn<R(Args...), Cap>
{
  public:
    /** True when a callable of type F is stored inline (never boxed). */
    template <typename F>
    static constexpr bool storesInline =
        sizeof(F) <= Cap && alignof(F) <= alignof(std::max_align_t) &&
        std::is_nothrow_move_constructible_v<F>;

    InplaceFn() = default;
    InplaceFn(std::nullptr_t) {}

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, InplaceFn> &&
                  std::is_invocable_r_v<R, std::decay_t<F> &, Args...>>>
    InplaceFn(F &&f)
    {
        using Fn = std::decay_t<F>;
        if constexpr (storesInline<Fn>) {
            ::new (buf) Fn(std::forward<F>(f));
            ops = &inlineOps<Fn>;
        } else {
            ::new (buf) Fn *(new Fn(std::forward<F>(f)));
            ops = &boxedOps<Fn>;
        }
    }

    InplaceFn(InplaceFn &&o) noexcept : ops(o.ops)
    {
        if (ops) {
            ops->relocate(o.buf, buf);
            o.ops = nullptr;
        }
    }

    InplaceFn &
    operator=(InplaceFn &&o) noexcept
    {
        if (this == &o)
            return *this;
        if (ops)
            ops->destroy(buf);
        ops = o.ops;
        if (ops) {
            ops->relocate(o.buf, buf);
            o.ops = nullptr;
        }
        return *this;
    }

    InplaceFn &
    operator=(std::nullptr_t)
    {
        if (ops) {
            ops->destroy(buf);
            ops = nullptr;
        }
        return *this;
    }

    ~InplaceFn()
    {
        if (ops)
            ops->destroy(buf);
    }

    explicit operator bool() const { return ops != nullptr; }

    R
    operator()(Args... args)
    {
        return ops->invoke(buf, std::forward<Args>(args)...);
    }

  private:
    struct Ops
    {
        R (*invoke)(void *, Args &&...);
        /** Move-construct into dst and destroy src. */
        void (*relocate)(void *src, void *dst);
        void (*destroy)(void *);
    };

    template <typename Fn>
    static constexpr Ops inlineOps = {
        [](void *p, Args &&...args) -> R {
            return (*static_cast<Fn *>(p))(
                std::forward<Args>(args)...);
        },
        [](void *src, void *dst) {
            Fn *f = static_cast<Fn *>(src);
            ::new (dst) Fn(std::move(*f));
            f->~Fn();
        },
        [](void *p) { static_cast<Fn *>(p)->~Fn(); },
    };

    template <typename Fn>
    static constexpr Ops boxedOps = {
        [](void *p, Args &&...args) -> R {
            return (**static_cast<Fn **>(p))(
                std::forward<Args>(args)...);
        },
        [](void *src, void *dst) {
            ::new (dst) Fn *(*static_cast<Fn **>(src));
        },
        [](void *p) { delete *static_cast<Fn **>(p); },
    };

    alignas(std::max_align_t) unsigned char buf[Cap];
    const Ops *ops = nullptr;
};

} // namespace pmemspec

#endif // PMEMSPEC_COMMON_INPLACE_FN_HH

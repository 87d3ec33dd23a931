"""Network machinery on agent stacks: forward/backward correctness, clipping, Adam, Polyak."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torus_pursuit.nn import (
    AdamState,
    MlpParams,
    Workspace,
    adam_step,
    backward,
    clip_global_norm,
    forward,
    mlp_init,
    polyak_update,
)


def stack(sizes, rng, agents=1):
    """A stack of `agents` freshly initialized networks."""
    return MlpParams(np.stack([mlp_init(sizes, rng) for _ in range(agents)]), tuple(sizes))


def copy(params):
    return MlpParams(params.flat.copy(), params.layer_sizes)


def adam_state(params):
    return AdamState(np.zeros_like(params.flat), np.zeros_like(params.flat))


def scalar_net(w, b):
    """A one-agent 1 -> 1 network with the given weight and bias."""
    return MlpParams(np.array([[w, b]], dtype=np.float64), (1, 1))


def eye_net(size):
    """A one-agent single-layer identity network."""
    params = MlpParams(np.zeros((1, size * size + size)), (size, size))
    params.weights[0][0] = np.eye(size)
    return params


def numeric_param_gradient(params, x, gy, h=1e-6):
    """Central finite differences over every single parameter entry."""
    flat = params.flat.reshape(-1)  # a view: writes reach the stack
    g = np.zeros_like(flat)
    for i, old in enumerate(flat.copy()):
        flat[i] = old + h
        up = float(np.vdot(forward(params, x)[0], gy))
        flat[i] = old - h
        down = float(np.vdot(forward(params, x)[0], gy))
        flat[i] = old
        g[i] = (up - down) / (2 * h)
    return g.reshape(params.flat.shape)


# -- reference: one agent's fresh-array network and per-layer list optimizer --
# A "bundle" is a (weights, biases) pair of per-layer lists of one agent's 2-D
# slices. The stacked in-place code must reproduce these bit for bit, agent
# by agent.

def ref_bundle(params, vec, i):
    weights, biases = params.layers(vec[i])
    return [w.copy() for w in weights], [b.copy() for b in biases]


def ref_flat(bundle):
    return np.concatenate([a.ravel() for a in bundle[0] + bundle[1]])


def ref_global_norm(grads):
    total = sum(float(np.sum(w**2)) for w in grads[0])
    total += sum(float(np.sum(b**2)) for b in grads[1])
    return math.sqrt(total)


def ref_clip_global_norm(grads, max_norm):
    norm = ref_global_norm(grads)
    if norm <= max_norm:
        return [w.copy() for w in grads[0]], [b.copy() for b in grads[1]]
    factor = max_norm / norm
    return [w * factor for w in grads[0]], [b * factor for b in grads[1]]


def ref_adam_step(params, grads, m, v, step, learning_rate,
                  beta1=0.9, beta2=0.999, eps=1e-8):
    t = step + 1
    c1 = 1.0 - beta1**t
    c2 = 1.0 - beta2**t
    new_p, new_m, new_v = ([], []), ([], []), ([], [])
    for kind in range(2):
        for p, g, mk, vk in zip(params[kind], grads[kind], m[kind], v[kind]):
            mk = beta1 * mk + (1.0 - beta1) * g
            vk = beta2 * vk + (1.0 - beta2) * g**2
            new_p[kind].append(p - learning_rate * (mk / c1) / (np.sqrt(vk / c2) + eps))
            new_m[kind].append(mk)
            new_v[kind].append(vk)
    return new_p, new_m, new_v, t


def ref_forward(bundle, x):
    """One agent's fresh-array forward on (rows, in): cache of (input, pre-activation) per layer."""
    weights, biases = bundle
    cache, h, last = [], x, len(weights) - 1
    for k, (w, b) in enumerate(zip(weights, biases)):
        z = h @ w.T + b
        cache.append((h, z))
        h = z if k == last else np.maximum(z, 0.0)
    return h, cache


def ref_backward(bundle, cache, gy):
    """One agent's fresh-array backward, derivatives taken from the pre-activations."""
    weights = bundle[0]
    g_weights, g_biases = [None] * len(weights), [None] * len(weights)
    grad, last = gy, len(weights) - 1
    for k in range(last, -1, -1):
        h_in, z = cache[k]
        dz = grad * (np.ones_like(z) if k == last else (z > 0.0).astype(np.float64))
        g_weights[k], g_biases[k] = dz.T @ h_in, dz.sum(axis=0)
        grad = dz @ weights[k]
    return ref_flat((g_weights, g_biases)), grad


def ref_polyak_update(target, online, tau):
    return tuple(
        [(1.0 - tau) * t + tau * o for t, o in zip(target[kind], online[kind])]
        for kind in range(2)
    )


class TestInit:
    def test_actor_shape_parameter_count(self):
        row = mlp_init([8, 128, 128, 2], np.random.default_rng(0))
        assert row.shape == (8 * 128 + 128 + 128 * 128 + 128 + 128 * 2 + 2,)
        assert len(MlpParams(row[None], (8, 128, 128, 2)).weights) == 3

    def test_deterministic_per_seed(self):
        a = mlp_init([4, 8, 2], np.random.default_rng(5))
        b = mlp_init([4, 8, 2], np.random.default_rng(5))
        assert np.array_equal(a, b)

    def test_biases_zero_and_weight_bounds(self):
        params = stack([10, 20, 3], np.random.default_rng(1), agents=2)
        for b in params.biases:
            assert np.all(b == 0.0)
        for w, fan_in in zip(params.weights, [10, 20]):
            assert np.all(np.abs(w) <= 1.0 / math.sqrt(fan_in))

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            mlp_init([4], np.random.default_rng(0))
        with pytest.raises(ValueError):
            mlp_init([4, 0, 2], np.random.default_rng(0))
        with pytest.raises(ValueError, match="not an .agents, P. stack"):
            MlpParams(mlp_init([4, 2], np.random.default_rng(0)), (4, 2))


class TestForward:
    def test_zero_network_zero_output(self):
        params = stack([3, 4, 2], np.random.default_rng(0), agents=2)
        for w in params.weights:
            w[...] = 0.0
        y, _ = forward(params, np.array([[[1.0, -2.0, 3.0]], [[0.5, 0.5, 0.5]]]))
        assert np.array_equal(y, np.zeros((2, 1, 2)))

    def test_identity_layer(self):
        x = np.array([[[0.5, -1.5, 2.0]]])
        y, _ = forward(eye_net(3), x)
        assert np.array_equal(y, x)

    def test_matches_hand_rolled_matrix_chain(self):
        # independent straight-line oracle for each agent's random 2-layer net
        rng = np.random.default_rng(3)
        params = stack([4, 6, 3], rng, agents=2)
        x = rng.standard_normal((2, 1, 4))
        y, _ = forward(params, x)
        for i in range(2):
            z1 = params.weights[0][i] @ x[i, 0] + params.biases[0][i]
            h1 = np.maximum(z1, 0.0)
            expected = params.weights[1][i] @ h1 + params.biases[1][i]
            assert np.allclose(y[i, 0], expected, atol=1e-12)

    def test_batch_rows_match_single(self):
        rng = np.random.default_rng(4)
        params = stack([5, 7, 2], rng, agents=2)
        xs = rng.standard_normal((2, 6, 5))
        batch, _ = forward(params, xs)
        for r in range(6):
            single, _ = forward(params, xs[:, r : r + 1])
            assert np.allclose(batch[:, r : r + 1], single, atol=1e-15)

    def test_row_wise_rows_keep_the_bits_of_one_row_alone(self):
        # (n, rows, 1, in) runs each row through the kernel a 1-row batch takes
        rng = np.random.default_rng(5)
        params = stack([5, 33, 2], rng, agents=3)
        xs = rng.standard_normal((3, 40, 1, 5))
        rows, cache = forward(params, xs)
        assert rows.shape == (3, 40, 1, 2)
        for r in range(40):
            single, _ = forward(params, xs[:, r])
            assert np.array_equal(rows[:, r].view(np.uint64), single.view(np.uint64))
        # the row-wise form feeds no backward pass
        with pytest.raises(ValueError, match="no .agents, rows, in. forward pass"):
            backward(params, cache, np.ones((3, 40, 1, 2)))

    def test_dimension_mismatch(self):
        params = stack([5, 7, 2], np.random.default_rng(0), agents=2)
        for x in (np.zeros((2, 1, 4)), np.zeros((3, 1, 5)), np.zeros((2, 5)), np.zeros(5),
                  np.zeros((2, 3, 2, 5)), np.zeros((2, 3, 1, 4))):
            with pytest.raises(ValueError, match="not .agents, rows, in."):
                forward(params, x)


class TestBackward:
    @pytest.mark.parametrize("sizes", [[3, 5, 2], [4, 8, 8, 2], [6, 10, 10, 10, 1]])
    def test_matches_finite_differences(self, sizes):
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(5):
            params = stack(sizes, rng, agents=2)
            x = rng.standard_normal((2, 3, sizes[0]))
            gy = rng.standard_normal((2, 3, sizes[-1]))
            _, cache = forward(params, x)
            analytic, _ = backward(params, cache, gy)
            numeric = numeric_param_gradient(params, x, gy)
            fa, fn = analytic, numeric
            scale = np.maximum(np.maximum(np.abs(fa), np.abs(fn)), 1e-4)
            worst = max(worst, float(np.max(np.abs(fa - fn) / scale)))
        assert worst < 1e-4

    def test_input_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(13)
        params = stack([4, 6, 3], rng, agents=2)
        x = rng.standard_normal((2, 3, 4))
        gy = rng.standard_normal((2, 3, 3))
        _, cache = forward(params, x)
        _, gx = backward(params, cache, gy)
        h = 1e-6
        for index in np.ndindex(x.shape):
            xp, xm = x.copy(), x.copy()
            xp[index] += h
            xm[index] -= h
            up, down = (np.vdot(forward(params, xs)[0], gy) for xs in (xp, xm))
            num = (up - down) / (2 * h)
            assert gx[index] == pytest.approx(num, rel=1e-5, abs=1e-8)

    def test_zero_output_gradient(self):
        rng = np.random.default_rng(17)
        params = stack([4, 6, 3], rng, agents=2)
        x = rng.standard_normal((2, 3, 4))
        _, cache = forward(params, x)
        grads, gx = backward(params, cache, np.zeros((2, 3, 3)))
        assert grads.shape == params.flat.shape
        assert np.all(grads == 0.0)
        assert np.all(gx == 0.0)

    def test_identity_layer_outer_product(self):
        params = eye_net(3)
        x = np.array([[[1.0, 2.0, 3.0]]])
        gy = np.array([[[0.5, -1.0, 2.0]]])
        _, cache = forward(params, x)
        grads, _ = backward(params, cache, gy)
        g_weights, g_biases = params.layers(grads)
        assert np.allclose(g_weights[0][0], np.outer(gy, x))
        assert np.allclose(g_biases[0][0], gy[0, 0])

    def test_batch_gradients_sum_over_rows(self):
        rng = np.random.default_rng(19)
        params = stack([3, 5, 2], rng, agents=2)
        xs = rng.standard_normal((2, 4, 3))
        gys = rng.standard_normal((2, 4, 2))
        _, cache = forward(params, xs)
        batch_grads, _ = backward(params, cache, gys)
        total = np.zeros_like(params.flat)
        for r in range(4):
            _, c = forward(params, xs[:, r : r + 1])
            g, _ = backward(params, c, gys[:, r : r + 1])
            total += g
        assert np.allclose(batch_grads, total, atol=1e-12)

    @pytest.mark.parametrize("rows", [1, 4])
    def test_skipped_gradients_leave_the_other_bit_equal(self, rows):
        rng = np.random.default_rng(21)
        params = stack([3, 5, 5, 2], rng, agents=2)
        x = rng.standard_normal((2, rows, 3))
        gy = rng.standard_normal((2, rows, 2))

        def run(**skip):
            _, cache = forward(params, x)
            grads, gx = backward(params, cache, gy, **skip)
            return (None if grads is None else grads.copy()), (None if gx is None else gx.copy())

        grads, gx = run()
        only_grads, no_gx = run(input_gradient=False)
        no_grads, only_gx = run(parameter_gradient=False)
        assert no_gx is None and no_grads is None
        assert np.array_equal(only_grads, grads)
        assert np.array_equal(only_gx, gx)


class TestClipping:
    def test_halves_when_norm_double(self):
        net = scalar_net(0.0, 0.0)
        g = np.array([[0.6, 0.8]])  # weight, then bias: norm 1.0
        clipped = clip_global_norm(net, g, 0.5)
        assert clipped[0, 0] == pytest.approx(0.3)
        assert clipped[0, 1] == pytest.approx(0.4)

    def test_unchanged_below_max(self):
        g = np.array([[0.3, 0.0]])
        clipped = clip_global_norm(scalar_net(0.0, 0.0), g, 0.5)
        assert clipped is g  # scaled in place, here by nothing
        assert clipped[0, 0] == 0.3

    def test_resulting_norm(self):
        rng = np.random.default_rng(29)
        net = stack([4, 3], rng, agents=3)
        for _ in range(100):
            g = rng.standard_normal(net.flat.shape) * rng.uniform(0.0, 0.5, size=(3, 1))
            before = np.linalg.norm(g, axis=1)
            after = np.linalg.norm(clip_global_norm(net, g, 0.5), axis=1)
            assert after == pytest.approx(np.minimum(before, 0.5), abs=1e-12)

    def test_idempotent(self):
        rng = np.random.default_rng(31)
        net = stack([5, 5], rng, agents=2)
        g = rng.standard_normal(net.flat.shape) * 3
        once = clip_global_norm(net, g.copy(), 0.5)
        twice = clip_global_norm(net, once.copy(), 0.5)
        assert np.allclose(once, twice, atol=1e-15)


class TestAdam:
    def test_zero_gradient_no_change(self):
        rng = np.random.default_rng(37)
        params = stack([3, 4, 2], rng, agents=2)
        before = params.flat.copy()
        new_params, new_state = adam_step(params, np.zeros_like(params.flat),
                                          adam_state(params), 1e-3)
        assert np.allclose(before, new_params.flat)
        assert new_state.step == 1

    def test_first_step_is_signed_learning_rate(self):
        # hand-computed single step: bias correction makes |update| ~ lr
        params = scalar_net(1.0, 0.0)
        g = np.array([[0.25, -3.0]])
        lr = 1e-3
        new_params, _ = adam_step(params, g, adam_state(params), lr)
        assert new_params.weights[0][0, 0, 0] == pytest.approx(1.0 - lr, rel=1e-6)
        assert new_params.biases[0][0, 0] == pytest.approx(0.0 + lr, rel=1e-6)

    def test_deterministic(self):
        rng = np.random.default_rng(41)
        params = stack([3, 4, 2], rng, agents=2)
        g = rng.standard_normal(params.flat.shape)
        out1 = adam_step(copy(params), g, adam_state(params), 1e-3)
        out2 = adam_step(copy(params), g, adam_state(params), 1e-3)
        assert np.array_equal(out1[0].flat, out2[0].flat)
        assert np.array_equal(out1[1].m, out2[1].m) and np.array_equal(out1[1].v, out2[1].v)

    def test_shape_mismatch(self):
        params = stack([3, 4, 2], np.random.default_rng(0), agents=2)
        for bad in (np.zeros((2, params.flat.shape[1] + 1)), np.zeros(params.flat.shape[1])):
            with pytest.raises(ValueError):
                adam_step(params, bad, adam_state(params), 1e-3)


class TestPolyak:
    def test_endpoints(self):
        rng = np.random.default_rng(43)
        target = stack([3, 4, 2], rng, agents=2)
        online = stack([3, 4, 2], rng, agents=2)
        assert np.allclose(polyak_update(copy(target), online, 1.0).flat, online.flat)
        assert np.allclose(polyak_update(copy(target), online, 0.0).flat, target.flat)

    def test_scalar_probe(self):
        target = scalar_net(0.0, 0.0)
        online = scalar_net(1.0, 1.0)
        updated = polyak_update(target, online, 0.001)
        assert updated.weights[0][0, 0, 0] == pytest.approx(0.001)

    def test_entrywise_betweenness(self):
        rng = np.random.default_rng(47)
        target = stack([4, 6, 2], rng, agents=2)
        online = stack([4, 6, 2], rng, agents=2)
        updated = polyak_update(copy(target), online, 0.3)
        for t, o, u in zip(target.weights, online.weights, updated.weights):
            lo = np.minimum(t, o)
            hi = np.maximum(t, o)
            assert np.all(u >= lo - 1e-15) and np.all(u <= hi + 1e-15)

    def test_invalid_tau(self):
        params = stack([3, 4, 2], np.random.default_rng(0))
        with pytest.raises(ValueError):
            polyak_update(params, params, 1.5)


class TestFiniteness:
    def test_no_non_finite_values_through_pipeline(self):
        rng = np.random.default_rng(53)
        params = stack([6, 16, 16, 2], rng, agents=2)
        state = adam_state(params)
        for _ in range(50):
            x = rng.standard_normal((2, 3, 6))
            y, cache = forward(params, x)
            assert np.all(np.isfinite(y))
            grads, _ = backward(params, cache, rng.standard_normal((2, 3, 2)))
            grads = clip_global_norm(params, grads, 0.5)
            assert np.all(np.isfinite(grads))
            params, state = adam_step(params, grads, state, 1e-3)
            assert np.all(np.isfinite(params.flat))


class TestFlatLayout:
    def test_weights_then_biases_row_major(self):
        params = stack([3, 4, 2], np.random.default_rng(59), agents=2)
        for i in range(2):
            layout = np.concatenate([a[i].ravel() for a in params.weights + params.biases])
            assert np.array_equal(params.flat[i], layout)
        assert params.layer_sizes == (3, 4, 2)

    def test_views_write_through_and_copy_shares_nothing(self):
        params = stack([3, 4, 2], np.random.default_rng(61), agents=2)
        params.weights[1][1, 0, 2] = 5.0  # agent 1, after W0's 4x3 entries
        params.biases[0][0, 1] = -2.0  # agent 0, after W0 and W1's 2x4 entries
        assert params.flat[1, 12 + 2] == 5.0
        assert params.flat[0, 12 + 8 + 1] == -2.0
        weights, biases = params.layers(params.flat[1])  # one agent's row
        assert weights[1][0, 2] == 5.0 and np.shares_memory(biases[0], params.flat)
        twin = copy(params)
        assert np.array_equal(twin.flat, params.flat)
        for a in [twin.flat, *twin.weights, *twin.biases]:
            assert not np.shares_memory(a, params.flat)
        twin.weights[0][...] = 0.0
        assert params.weights[0][0, 0, 0] != 0.0

    def test_updates_write_in_place(self):
        rng = np.random.default_rng(67)
        params = stack([3, 4, 2], rng, agents=2)
        target = copy(params)
        state = adam_state(params)
        flat, m, v = params.flat, state.m, state.v
        g = rng.standard_normal(params.flat.shape)
        g_before = g.copy()
        stepped, new_state = adam_step(params, g, state, 1e-3)
        assert stepped is params and new_state is state
        assert stepped.flat is flat and new_state.m is m and new_state.v is v
        assert np.shares_memory(stepped.weights[0], flat)  # views still see the update
        assert np.array_equal(g, g_before)  # the gradient is only read
        online_before = params.flat.copy()
        averaged = polyak_update(target, params, 0.5)
        assert averaged is target
        assert np.array_equal(params.flat, online_before)
        for vec in (g, params.flat):
            assert not np.shares_memory(averaged.flat, vec)
        # target aliasing online still reads online before scaling it
        same = params.flat.copy()
        assert np.array_equal(polyak_update(params, params, 0.3).flat, 0.7 * same + 0.3 * same)

    def test_layer_views_reject_other_layouts(self):
        params = stack([3, 4, 2], np.random.default_rng(71), agents=2)
        with pytest.raises(ValueError):
            params.layers(np.zeros(params.flat.shape[1] - 1))
        with pytest.raises(ValueError):
            params.layers(np.zeros((2, 2, params.flat.shape[1])))
        with pytest.raises(ValueError):
            clip_global_norm(params, np.zeros((3, params.flat.shape[1])), 0.5)


@settings(max_examples=60, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 9), min_size=2, max_size=4),
    agents=st.integers(1, 3),
    steps=st.integers(1, 5),
    learning_rate=st.floats(1e-6, 0.1),
    tau=st.floats(0.0, 1.0),
    max_norm=st.floats(1e-3, 10.0),
    ascend=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_flat_updates_equal_list_reference(sizes, agents, steps, learning_rate, tau, max_norm,
                                           ascend, seed):
    rng = np.random.default_rng(seed)
    params = stack(sizes, rng, agents)
    target = stack(sizes, rng, agents)
    state = adam_state(params)
    ref_p = [ref_bundle(params, params.flat, i) for i in range(agents)]
    ref_t = [ref_bundle(target, target.flat, i) for i in range(agents)]
    ref_m = [ref_bundle(params, state.m, i) for i in range(agents)]
    ref_v = [ref_bundle(params, state.v, i) for i in range(agents)]
    for step in range(steps):
        _, cache = forward(params, rng.standard_normal((agents, 3, sizes[0])))
        grads, _ = backward(params, cache, rng.standard_normal((agents, 3, sizes[-1])))
        ref_g = [ref_bundle(params, grads, i) for i in range(agents)]

        clipped = clip_global_norm(params, grads, max_norm)
        ref_clipped = [ref_clip_global_norm(g, max_norm) for g in ref_g]
        if ascend:  # the actor's sign flip
            clipped = -clipped
            ref_clipped = [tuple([-a for a in layers] for layers in g) for g in ref_clipped]

        params, state = adam_step(params, clipped, state, learning_rate)
        target = polyak_update(target, params, tau)
        assert state.step == step + 1
        for i in range(agents):
            assert np.array_equal(clipped[i], ref_flat(ref_clipped[i]))
            ref_p[i], ref_m[i], ref_v[i], _ = ref_adam_step(
                ref_p[i], ref_clipped[i], ref_m[i], ref_v[i], step, learning_rate
            )
            assert np.array_equal(params.flat[i], ref_flat(ref_p[i]))
            assert np.array_equal(state.m[i], ref_flat(ref_m[i]))
            assert np.array_equal(state.v[i], ref_flat(ref_v[i]))
            ref_t[i] = ref_polyak_update(ref_t[i], ref_p[i], tau)
            assert np.array_equal(target.flat[i], ref_flat(ref_t[i]))


@settings(max_examples=60, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 9), min_size=2, max_size=4),
    agents=st.integers(1, 4),
    rows=st.sampled_from([1, 5]),
    specials=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_workspace_passes_equal_fresh_array_reference(sizes, agents, rows, specials, seed):
    rng = np.random.default_rng(seed)
    params = stack(sizes, rng, agents)
    if specials:  # pre-activations of exactly +-0.0, and NaN from a NaN weight
        params.weights[0][:, 0] = 0.0
        params.biases[0][:, 0] = -0.0 if rows == 1 else 0.0
        if len(sizes) > 2:
            params.weights[0][-1, -1, 0] = np.nan
    ws = Workspace(params.layer_sizes, rows, agents)
    for _ in range(2):  # the second pass reuses every buffer
        x = rng.standard_normal((agents, rows, sizes[0]))
        gy = rng.standard_normal((agents, rows, sizes[-1]))
        y, cache = forward(params, x, ws)
        assert cache is ws and np.shares_memory(y, ws.activations[-1])
        refs = [ref_forward(ref_bundle(params, params.flat, i), x[i]) for i in range(agents)]
        for i, (ref_y, _) in enumerate(refs):
            assert np.array_equal(y[i], ref_y, equal_nan=True)
        g, gx = backward(params, cache, gy)
        for i, (_, ref_cache) in enumerate(refs):
            ref_g, ref_gx = ref_backward(ref_bundle(params, params.flat, i), ref_cache, gy[i])
            assert np.array_equal(g[i], ref_g, equal_nan=True)
            assert np.array_equal(gx[i], ref_gx, equal_nan=True)


class TestWorkspace:
    def test_private_workspaces_share_nothing(self):
        rng = np.random.default_rng(73)
        params = stack([3, 5, 2], rng, agents=2)
        x = rng.standard_normal((2, 4, 3))
        y1, c1 = forward(params, x)
        y2, c2 = forward(params, x + 1.0)
        g1, _ = backward(params, c1, np.ones((2, 4, 2)))
        g2, _ = backward(params, c2, np.ones((2, 4, 2)))
        assert c1 is not c2
        assert not np.shares_memory(y1, y2) and not np.shares_memory(g1, g2)

    def test_shared_vectors_and_forward_only(self):
        params = stack([3, 5, 2], np.random.default_rng(79), agents=2)
        single = Workspace(params.layer_sizes, 1, 2)
        forward(params, np.ones((2, 1, 3)), single)
        assert single._pool.buffers == {}  # a forward never makes the gradient buffers
        # sharing lends the gradient and input-gradient buffers to any layout and count
        other = stack([6, 4, 1], np.random.default_rng(80), agents=3)
        batch = Workspace(params.layer_sizes, 4, 2, shared=single)
        wide = Workspace(other.layer_sizes, 4, 3, shared=single)
        _, cache = forward(params, np.ones((2, 4, 3)), batch)
        grads, gx = backward(params, cache, np.ones((2, 4, 2)))
        _, cache = forward(other, np.ones((3, 4, 6)), wide)
        other_grads, other_gx = backward(other, cache, np.ones((3, 4, 1)))
        assert np.shares_memory(grads, other_grads) and np.shares_memory(gx, other_gx)
        assert not np.shares_memory(batch.activations[0], wide.activations[0])

    def test_layout_and_rows_must_match(self):
        params = stack([3, 5, 2], np.random.default_rng(83), agents=2)
        with pytest.raises(ValueError):
            forward(params, np.ones((2, 4, 3)), Workspace(params.layer_sizes, 5, 2))
        with pytest.raises(ValueError):
            forward(params, np.ones((2, 4, 3)), Workspace(params.layer_sizes, 4, 3))
        with pytest.raises(ValueError):
            forward(params, np.ones((2, 1, 3)), Workspace([3, 4, 2], 1, 2))
        with pytest.raises(ValueError):
            adam_step(params, np.zeros(params.flat.shape), adam_state(params), 1e-3,
                      ws=Workspace([3, 4, 2], 1, 2))
        _, cache = forward(params, np.ones((2, 4, 3)))
        with pytest.raises(ValueError):
            backward(params, cache, np.ones((2, 5, 2)))

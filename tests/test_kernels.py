"""Behavioral kernel and registry tests."""

import struct

import pytest
from hypothesis import given
from hypothesis import strategies as st

from proteus_sim.fixed_part import RegisterFile, StreamBuffer
from proteus_sim.kernels import (
    BUILTIN_KERNELS,
    DuplicateId,
    Fir4Kernel,
    IdentityKernel,
    KernelAccessViolation,
    KernelRegistry,
    PortIO,
    SinkKernel,
)

WORD = 0xFFFFFFFF


def make_io(words=(), regs=None, irq=None):
    down = StreamBuffer(capacity=4096, fill_low=1, fill_high=4096)
    up = StreamBuffer(capacity=4096, fill_low=1, fill_high=4096)
    for w in words:
        down.push(w)
    io = PortIO(down, up, regs or RegisterFile(), irq or (lambda: None))
    return io, down, up


def kernel_step(kernel, io):
    """One user-clock cycle, as the kernel host runs it."""
    io.consumed = io.produced = 0
    kernel.step(io)
    return io.consumed, io.produced


def run_words(kernel, words, regs=None):
    io, down, up = make_io(words, regs)
    for _ in range(len(words) + 8):
        kernel_step(kernel, io)
    return [up.pop() for _ in range(up.occupancy)]


def test_identity_passes_words_through():
    assert run_words(IdentityKernel(), [1, 2, 3]) == [1, 2, 3]


def test_negate_is_bitwise_not():
    assert run_words(BUILTIN_KERNELS["negate"](), [0x00000000, 0x0F0F0F0F]) == \
        [0xFFFFFFFF, 0xF0F0F0F0]


def test_add_const_reads_register8_and_wraps():
    regs = RegisterFile()
    regs.write(8, 0xFFFFFFFF)
    assert run_words(BUILTIN_KERNELS["add_const"](), [1, 5], regs) == [0, 4]


def test_fir4_hand_computed_sliding_sum():
    assert run_words(Fir4Kernel(), [1, 1, 1, 1, 1]) == [1, 2, 3, 4, 4]


# Each kernel's output for a word list, computed word by word without it.
ORACLES = {
    "identity": lambda words, _k: list(words),
    "negate": lambda words, _k: [w ^ WORD for w in words],
    "add_const": lambda words, k: [(w + k) % 2**32 for w in words],
    "fir4": lambda words, _k: [sum(words[max(0, i - 3):i + 1]) & WORD
                               for i in range(len(words))],
    "sink": lambda _words, _k: [],
}


@pytest.mark.parametrize("factory", [*BUILTIN_KERNELS.values(), SinkKernel],
                         ids=lambda k: k.name)
@given(words=st.lists(st.integers(0, WORD), max_size=60),
       cuts=st.lists(st.integers(0, 60), max_size=6), reg8=st.integers(0, WORD))
def test_map_words_equals_repeated_step(factory, words, cuts, reg8):
    # The map form over a word list packed as bytes, split into calls at
    # random points, and stepping the kernel once per word both give the
    # per-word oracle.
    want = ORACLES[factory.name](words, reg8)
    regs = RegisterFile()
    regs.write(8, reg8)
    kernel = factory()
    io, _, _ = make_io(regs=regs)
    bounds = sorted({c % (len(words) + 1) for c in cuts})
    got = b""
    for lo, hi in zip([0, *bounds], [*bounds, len(words)]):
        got += kernel.map_words(io, struct.pack(f"<{hi - lo}I", *words[lo:hi]))
    assert got == struct.pack(f"<{len(want)}I", *want)
    assert run_words(factory(), words, regs) == want


@given(st.lists(st.integers(0, WORD), max_size=40))
def test_fir4_matches_window_oracle(words):
    expected = [sum(words[max(0, i - 3):i + 1]) & WORD for i in range(len(words))]
    assert run_words(Fir4Kernel(), words) == expected


def test_step_rate_bound_one_word_per_port():
    io, down, up = make_io([7, 8, 9])
    consumed, produced = kernel_step(IdentityKernel(), io)
    assert (consumed, produced) == (1, 1)
    assert down.occupancy == 2 and up.occupancy == 1


def test_greedy_kernel_is_stopped():
    class Greedy:
        def step(self, io):
            io.read()
            io.read()

    io, _, _ = make_io([1, 2, 3])
    with pytest.raises(KernelAccessViolation):
        kernel_step(Greedy(), io)


def test_kernel_register_write_restricted():
    io, _, _ = make_io()
    io.reg_write(8, 5)
    io.reg_write(13, 6)
    for bad in (0, 7, 14, 15):
        with pytest.raises(KernelAccessViolation):
            io.reg_write(bad, 1)


def test_kernel_reads_setup_registers():
    regs = RegisterFile()
    regs.write(0, 0xABC)
    io, _, _ = make_io(regs=regs)
    assert io.reg_read(0) == 0xABC


def test_kernel_interrupt_request_routed():
    fired = []
    io, _, _ = make_io(irq=lambda: fired.append(True))
    io.request_interrupt()
    assert fired == [True]


def test_bind_duplicate_id_rejected():
    reg = KernelRegistry()
    reg.bind(1, "identity")
    with pytest.raises(DuplicateId):
        reg.bind(1, "negate")


def test_activate_unknown_id_reports_inert():
    reg = KernelRegistry()
    assert reg.activate(0x9999) is None
    assert reg.active is None


def test_activate_replaces_previous_kernel():
    reg = KernelRegistry()
    reg.bind(1, "identity")
    reg.bind(2, "negate")
    assert reg.activate(1) == "identity"
    first = reg.active
    assert reg.activate(2) == "negate"
    assert reg.active is not first
    assert reg.active.name == "negate"


def test_reactivation_resets_kernel_state():
    # fir4 history must vanish on re-activation: outputs equal a fresh instance.
    reg = KernelRegistry()
    reg.bind(3, "fir4")
    reg.activate(3)
    run_words(reg.active, [9, 9, 9, 9])  # dirty the taps
    reg.activate(3)
    assert run_words(reg.active, [1, 1, 1, 1, 1]) == run_words(Fir4Kernel(), [1, 1, 1, 1, 1])


def test_custom_factory_binding():
    reg = KernelRegistry()
    reg.bind(0x50, SinkKernel)
    assert reg.activate(0x50) == "sink"
    assert run_words(reg.active, [1, 2, 3]) == []

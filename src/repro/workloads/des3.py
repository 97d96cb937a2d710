"""3DES (Triple DES): packet encryption for network routers.

Table 4: "Network routers encrypt multiple packets as they arrive,
each of which is represented as a narrow task.  We use NetBench to
generate varied sizes of network packets."  One task encrypts one
packet (2 KB - 64 KB, Table 3) in ECB mode with EDE
(encrypt-decrypt-encrypt under three keys).

The cipher here is a complete FIPS 46-3 DES — validated against the
standard's published test vector — so the functional path really
encrypts; a matching :func:`des3_decrypt` proves round-trip.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.gpu.phases import Phase, phase_table
from repro.tasks import TaskSpec
from repro.workloads import des_tables as T
from repro.workloads.base import REGISTRY, Workload

MIN_PACKET = 2 * 1024
MAX_PACKET = 64 * 1024
#: lane ops per DES round per 8-byte block: bitsliced table-lookup GPU
#: implementations are fast; calibrated so the HyperQ copy fraction
#: matches Table 3 (74%: 3DES is copy-bound)
INST_PER_ROUND = 0.27
ROUNDS_PER_3DES = 48  # 3 x 16


# ---------------------------------------------------------------------------
# Core DES on 64-bit integers
# ---------------------------------------------------------------------------

def _permute(value: int, table: Sequence[int], in_width: int) -> int:
    """Apply a 1-based DES permutation table to ``value``."""
    out = 0
    for pos in table:
        out = (out << 1) | ((value >> (in_width - pos)) & 1)
    return out


def key_schedule(key64: int) -> List[int]:
    """Derive the 16 48-bit round keys from a 64-bit key."""
    key56 = _permute(key64, T.PC1, 64)
    c = (key56 >> 28) & 0xFFFFFFF
    d = key56 & 0xFFFFFFF
    round_keys = []
    for shift in T.SHIFTS:
        c = ((c << shift) | (c >> (28 - shift))) & 0xFFFFFFF
        d = ((d << shift) | (d >> (28 - shift))) & 0xFFFFFFF
        round_keys.append(_permute((c << 28) | d, T.PC2, 56))
    return round_keys


def _feistel(half: int, round_key: int) -> int:
    """The DES round function f(R, K)."""
    expanded = _permute(half, T.E, 32) ^ round_key
    out = 0
    for box in range(8):
        six = (expanded >> (42 - 6 * box)) & 0x3F
        row = ((six >> 4) & 0b10) | (six & 1)
        col = (six >> 1) & 0xF
        out = (out << 4) | T.SBOXES[box][row][col]
    return _permute(out, T.P, 32)


def des_block(block: int, round_keys: Sequence[int],
              decrypt: bool = False) -> int:
    """Encrypt/decrypt one 64-bit block with a prepared key schedule."""
    keys = list(reversed(round_keys)) if decrypt else round_keys
    value = _permute(block, T.IP, 64)
    left = (value >> 32) & 0xFFFFFFFF
    right = value & 0xFFFFFFFF
    for rk in keys:
        left, right = right, left ^ _feistel(right, rk)
    return _permute((right << 32) | left, T.FP, 64)


def _blocks(data: bytes):
    if len(data) % 8 != 0:
        raise ValueError("packet length must be a multiple of 8 (ECB)")
    return [int.from_bytes(data[i:i + 8], "big") for i in range(0, len(data), 8)]


def _join(blocks: Sequence[int]) -> bytes:
    return b"".join(b.to_bytes(8, "big") for b in blocks)


def des3_encrypt(data: bytes, keys: Sequence[int]) -> bytes:
    """EDE triple-DES in ECB mode over a packet."""
    if len(keys) != 3:
        raise ValueError("3DES needs exactly 3 keys")
    ks = [key_schedule(k) for k in keys]
    out = []
    for block in _blocks(data):
        x = des_block(block, ks[0])
        x = des_block(x, ks[1], decrypt=True)
        x = des_block(x, ks[2])
        out.append(x)
    return _join(out)


def des3_decrypt(data: bytes, keys: Sequence[int]) -> bytes:
    """Inverse of :func:`des3_encrypt`."""
    if len(keys) != 3:
        raise ValueError("3DES needs exactly 3 keys")
    ks = [key_schedule(k) for k in keys]
    out = []
    for block in _blocks(data):
        x = des_block(block, ks[2], decrypt=True)
        x = des_block(x, ks[1])
        x = des_block(x, ks[0], decrypt=True)
        out.append(x)
    return _join(out)


# ---------------------------------------------------------------------------
# NetBench-style packet size generator
# ---------------------------------------------------------------------------

def netbench_packet_sizes(n: int, rng: np.random.Generator,
                          lo: int = MIN_PACKET, hi: int = MAX_PACKET
                          ) -> List[int]:
    """Varied packet sizes in [lo, hi], 8-byte aligned.

    NetBench traces are heavy-tailed: mostly small packets with a fat
    tail of large transfers; a log-uniform draw reproduces that mix.
    """
    sizes = np.exp(rng.uniform(np.log(lo), np.log(hi), n))
    return [int(s) // 8 * 8 for s in sizes]


# ---------------------------------------------------------------------------
# Workload
# ---------------------------------------------------------------------------

@dataclass
class Des3Work:
    """Per-task payload: one packet and the router's keys."""

    packet_bytes: int
    packet: bytes = None
    keys: tuple = (0x0123456789ABCDEF, 0x23456789ABCDEF01, 0x456789ABCDEF0123)
    out: bytearray = None


@phase_table(lambda task, block_id, warp_id: (
    task.work.packet_bytes, task.threads_per_block, task.num_blocks))
def des3_kernel(task: TaskSpec, block_id: int, warp_id: int):
    """Timing kernel: each thread encrypts its stripe of 8-byte blocks;
    irregular packet sizes make per-task work vary widely."""
    work: Des3Work = task.work
    blocks = work.packet_bytes // 8
    blocks_per_thread = max(1, -(-blocks // task.total_threads))
    inst = blocks_per_thread * ROUNDS_PER_3DES * INST_PER_ROUND
    mem_total = 2 * work.packet_bytes / task.total_warps  # read + write
    phases = 4
    for _ in range(phases):
        yield Phase(inst=inst / phases, mem_bytes=mem_total / phases)


def des3_func(ctx) -> None:
    """Functional kernel: 3DES-encrypt the packet."""
    work: Des3Work = ctx.args
    work.out[:] = des3_encrypt(work.packet, work.keys)


class Des3Workload(Workload):
    """3DES benchmark (Table 3: 2K-64K packets, 26 regs, irregular)."""

    def __init__(self) -> None:
        super().__init__(
            name="3des",
            description="Triple-DES packet encryption (NetBench sizes)",
            regs_per_thread=26,
        )

    def make_task(self, index, threads, rng, irregular, functional):
        # 3DES is inherently irregular: NetBench sizes vary regardless
        """Build one TaskSpec (see Workload.make_task)."""
        size = netbench_packet_sizes(1, rng)[0]
        if functional:
            # keep functional packets small enough for pure-Python DES
            size = min(size, 512)
        work = Des3Work(packet_bytes=size)
        if functional:
            work.packet = bytes(rng.integers(0, 256, size, dtype=np.uint8))
            work.out = bytearray(size)
        return TaskSpec(
            name=f"3des{index}",
            threads_per_block=threads,
            num_blocks=1,
            kernel=des3_kernel,
            regs_per_thread=self.regs_per_thread,
            # scalar CPU DES pays full-width permutations where the GPU
            # kernel uses warp-wide table lookups
            cpu_inst_factor=10.0,
            input_bytes=size,
            output_bytes=size,
            work=work,
            func=des3_func if functional else None,
        )

    def verify_task(self, task: TaskSpec) -> None:
        """Compare functional output with the reference."""
        work: Des3Work = task.work
        assert bytes(work.out) == des3_encrypt(work.packet, work.keys)
        assert des3_decrypt(bytes(work.out), work.keys) == work.packet


DES3 = REGISTRY.register(Des3Workload())

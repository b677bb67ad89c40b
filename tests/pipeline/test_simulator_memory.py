"""Memory behaviour in the timing simulator: cache latencies, forwarding, violations."""

from repro.isa.builder import ProgramBuilder
from repro.isa.emulator import ArchState
from tests.conftest import build_counted_loop, run_simulation, small_config


def _l1_resident_load_loop():
    def body(b: ProgramBuilder) -> None:
        b.addi("r2", "r2", 8)
        b.and_("r2", "r2", imm=(1 << 9) - 1)  # 512-byte footprint
        b.ld("r3", "r2", 0x1000)
        b.add("r4", "r4", "r3")

    return build_counted_loop(body, name="l1_loads")


def _dram_pointer_chase(words: int = 1 << 16):
    b = ProgramBuilder("chase")
    b.movi("r1", 0)
    b.movi("r4", 0x100000)
    b.label("loop")
    b.ld("r4", "r4", 0)
    b.addi("r1", "r1", 1)
    b.cmp("r1", imm=1 << 40)
    b.bne("loop")
    program = b.build()
    state = ArchState()
    step = (words // 2) + 1
    for index in range(words):
        successor = (index * 5 + step) % words
        state.write_mem(0x100000 + 8 * index, 0x100000 + 8 * successor)
    return program, state


def _store_load_same_address_loop():
    """A store immediately followed by a load of the same address: forwarding territory."""

    def body(b: ProgramBuilder) -> None:
        b.addi("r2", "r2", 8)
        b.and_("r2", "r2", imm=(1 << 10) - 1)
        b.addi("r5", "r5", 3)
        b.st("r2", "r5", 0x2000)
        b.ld("r6", "r2", 0x2000)
        b.add("r7", "r7", "r6")

    return build_counted_loop(body, name="store_load")


class TestCacheLatency:
    def test_l1_resident_loop_is_fast(self):
        result = run_simulation(small_config(), _l1_resident_load_loop(), max_uops=1400)
        assert result.ipc > 1.5
        assert result.l1d_miss_rate < 0.2

    def test_dram_chase_is_memory_latency_bound(self):
        program, state = _dram_pointer_chase()
        result = run_simulation(
            small_config(), program, max_uops=800, state=state
        )
        assert result.ipc < 0.25
        assert result.l2_miss_rate > 0.5

    def test_committed_loads_counted(self):
        result = run_simulation(small_config(), _l1_resident_load_loop(), max_uops=700)
        assert result.stats.committed_loads > 90


class TestStoreToLoadInteraction:
    def test_forwarding_happens_for_read_after_write(self):
        result = run_simulation(small_config(), _store_load_same_address_loop(), max_uops=1800)
        assert result.stats.forwarded_loads > 0

    def test_memory_order_violations_are_bounded_by_store_sets(self):
        result = run_simulation(small_config(), _store_load_same_address_loop(), max_uops=1800)
        stats = result.stats
        # Early violations may occur, after which Store Sets serialises the pair.
        assert stats.memory_order_violations < stats.committed_loads * 0.2
        assert stats.committed_uops == 1800

    def test_store_counts(self):
        result = run_simulation(small_config(), _store_load_same_address_loop(), max_uops=900)
        assert result.stats.committed_stores > 80

import importlib.util
from pathlib import Path

import pytest

from idfsim.devc import Device, TransferError

PERFBENCH_GEN = Path(__file__).parent.parent / "perfbench" / "gen.py"


@pytest.fixture(scope="session")
def perfbench_gen():
    """The benchmark's seeded input generators, `perfbench/gen.py`, which
    import nothing from idfsim."""
    spec = importlib.util.spec_from_file_location("perfbench_gen", PERFBENCH_GEN)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen


@pytest.fixture
def fail_dma_calls(monkeypatch):
    """`fail_dma_calls(numbers)` fails those calls (counted from 1) of
    `Device.dma_process`: each consumes its descriptor and raises, as a
    failed transfer does."""
    real = Device.dma_process

    def install(numbers):
        calls = []

        def flaky(self):
            calls.append(None)
            if len(calls) in numbers:
                self.dma_queue.popleft()
                raise TransferError("test",
                                    f"injected fault at DMA {len(calls)}")
            return real(self)

        monkeypatch.setattr(Device, "dma_process", flaky)

    return install

import importlib.util
from pathlib import Path

import pytest

from idfsim import fabric
from idfsim.devc import Device, TransferError
from idfsim.packets import build_write_frame_sequence, bytes_to_words, words_to_bytes

PERFBENCH_GEN = Path(__file__).parent.parent / "perfbench" / "gen.py"


def write_frames(engine, far_word, frames, device_id=None):
    """Write `frames`, word lists, from `far_word` on as one frame-write
    sequence through `engine.execute`, the engine's only frame writer;
    returns the engine's events.  `device_id` defaults to the engine's."""
    if device_id is None:
        device_id = engine.device_id
    seq = build_write_frame_sequence(device_id, far_word, frames)
    return engine.execute(words_to_bytes(seq.words))[1]


def write_flipped_bit(engine, far_word, bit):
    """Flip one configuration bit as the PS does: write its frame back
    through `engine.execute` with the bit flipped, then check that the frame
    landed and is the newest in `frame_versions`.  `fabric.flip_frame_bit`
    is looked up per call, so a test can patch it."""
    assert 0 <= bit < fabric.FRAME_BITS, f"bit {bit} outside a frame"
    frame = engine.memory.get(far_word, fabric.ZERO_FRAME)
    frame = fabric.flip_frame_bit(frame, bit)
    write_frames(engine, far_word, [bytes_to_words(frame)])
    assert engine.memory[far_word] == frame
    assert next(reversed(engine.frame_versions)) == far_word


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

"""Benchmark: the Section 4 ladder and the autotuner across devices.

Extends the paper's one-device tuning study to the registered profiles
(the per-GPU tile-winner table of Xu, Kirk and Jenkins, *Tiling for
Performance Tuning on Different Models of GPUs*): the 16x16 matmul
ladder and the autotuner's winner at n=512 on the G80, Fermi-class
``gtx_480`` and modern-class ``rtx_3090`` profiles.
"""

from conftest import run_once
from repro.bench.devices import format_entries, run_devices


def test_cross_device_retune(benchmark, out_dir):
    entries = run_once(benchmark, run_devices, n=512)
    text = format_entries(entries)
    print("\n" + text)
    (out_dir / "cross_device.txt").write_text(text + "\n")
    winners = {e["device"]: e["autotune"]["winner"] for e in entries}
    # the G80's tuned configuration is the paper's 91.14 GFLOPS kernel
    assert winners["geforce_8800_gtx"] == "16x16 unrolled"
    # ... and it is a local answer: the winner moves with the device
    assert len(set(winners.values())) > 1
    for e in entries:
        g = e["ladder_gflops"]
        assert g["naive"] < g["tiled"] <= g["tiled_unrolled"], e["device"]
        assert g["prefetch"] <= g["tiled_unrolled"], e["device"]

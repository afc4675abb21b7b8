"""Figure 7 — inference throughput for GoogLeNet / VGG-16 / ResNet-50 on
TensorRT (fp16) with DLBooster, nvJPEG and CPU-based backends, over a
batch-size sweep.

Shape checks encode S5.3's findings: DLBooster delivers 1.2x-2.4x the
baselines; nvJPEG degrades as batch grows (GPU-core competition);
throughput grows with batch size for all backends; DLBooster hits its
decoder bound past batch 16 on GoogLeNet.
"""

from __future__ import annotations

from ..calib import INFER_MODELS
from .report import Report, timed

__all__ = ["run", "batch_sweep"]

BACKENDS = ("cpu-online", "nvjpeg", "dlbooster")


def batch_sweep(model: str, quick: bool) -> tuple[int, ...]:
    """Batch sizes swept for one model (truncated in the quick profile)."""
    max_bs = INFER_MODELS[model].batch_size      # 32 or 64 per the figures
    if quick:
        return tuple(b for b in (1, 8, max_bs))
    sweep = [1, 2, 4, 8, 16, 32, 64]
    return tuple(b for b in sweep if b <= max_bs)


@timed
def run(quick: bool = False, models=("googlenet", "vgg16", "resnet50"),
        parallel: int = 1) -> Report:
    """Reproduce Fig. 7: inference throughput over the batch sweep.

    The (model, backend, batch) grid runs through :mod:`repro.sweep`:
    in order at ``parallel=1``, fanned out to that many worker processes
    above it.  Each point is an independent simulation and results are
    reassembled in grid order, so the report is the same either way.
    """
    from ..sweep import SweepPoint, run_sweep
    warmup, measure = (0.8, 2.5) if quick else (1.0, 5.0)
    report = Report(
        experiment_id="fig7",
        title="Inference throughput on TensorRT (fp16), 5 clients over "
              "40 Gbps",
        columns=["model", "backend", "batch", "img/s"])

    grid = [(model, backend, bs)
            for model in models
            for backend in BACKENDS
            for bs in batch_sweep(model, quick)]
    points = [SweepPoint(
        runner="fig7_infer",
        config={"model": m, "backend": b, "batch_size": bs,
                "warmup_s": warmup, "measure_s": measure,
                "telemetry": False},
        label=f"{m}/{b}/bs{bs}") for m, b, bs in grid]
    outcome = run_sweep(points, parallel=parallel)
    throughputs = [res["values"]["throughput"] for res in outcome.results]

    perf: dict[tuple, float] = {}
    for (model, backend, bs), throughput in zip(grid, throughputs):
        perf[(model, backend, bs)] = throughput
        report.add_row(model, backend, bs, throughput)

    for model in models:
        top = max(batch_sweep(model, quick))
        dlb = perf[(model, "dlbooster", top)]
        cpu = perf[(model, "cpu-online", top)]
        nvj = perf[(model, "nvjpeg", top)]
        report.check(
            f"DLBooster-enabled TensorRT achieves >=1.2x nvJPEG on "
            f"{model} at batch {top} (S5.3 (1))",
            dlb >= 1.2 * nvj, f"{dlb / nvj:.2f}x")
        if model == "vgg16":
            # VGG's engine bound (~2,100 img/s) sits below every
            # backend's preprocessing capacity except nvJPEG's, so
            # DLBooster and CPU-based tie at the bound (Fig. 7b shows
            # them close) — but CPU-based pays ~7 cores for parity.
            report.check(
                "DLBooster matches the CPU-based backend at VGG-16's "
                "engine bound (Fig. 7b)",
                dlb >= 0.97 * cpu, f"{dlb / cpu:.2f}x")
        else:
            report.check(
                f"DLBooster achieves >=1.2x the CPU-based backend on "
                f"{model} at batch {top} (S5.3 (1))",
                dlb >= 1.2 * cpu, f"{dlb / cpu:.2f}x")
        report.check(
            f"nvJPEG-enabled TensorRT achieves the lowest throughput on "
            f"{model} at large batch (S5.3 (2))",
            nvj <= cpu and nvj <= dlb,
            f"nvJPEG {nvj:.0f} vs cpu {cpu:.0f}")
        for backend in BACKENDS:
            sweep = batch_sweep(model, quick)
            report.check(
                f"{backend} throughput grows with batch size on {model} "
                f"(S5.3 (4))",
                perf[(model, backend, sweep[-1])]
                >= perf[(model, backend, sweep[0])],
                "")

    if "googlenet" in models and not quick:
        knee = (perf[("googlenet", "dlbooster", 32)]
                / perf[("googlenet", "dlbooster", 16)])
        report.check(
            "DLBooster approaches its decoder bound past batch 16 on "
            "GoogLeNet (S5.3: saturation knee)",
            knee <= 1.15, f"bs32/bs16 = {knee:.2f}")
    # The blanket claim: somewhere in the sweep DLBooster reaches ~2.4x.
    # Only meaningful when a decode-bound model is part of the run —
    # VGG-16 alone is engine-bound everywhere (Fig. 7b).
    if any(m in models for m in ("googlenet", "resnet50")):
        best = max(
            perf[(m, "dlbooster", b)] / perf[(m, other, b)]
            for m in models for b in batch_sweep(m, quick)
            for other in ("cpu-online", "nvjpeg"))
        report.check(
            "DLBooster's advantage peaks around 2.4x (abstract: "
            "1.35x~2.4x)",
            2.0 <= best <= 3.0, f"max ratio {best:.2f}x")
    return report

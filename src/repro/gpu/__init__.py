"""Analytic GPU execution-model substrate.

The paper measures wall-clock LSQR iteration times on five physical
GPU platforms.  Those boards are not available here, so this package
provides the closest synthetic equivalent: an analytic execution model
of the solver's kernels on each platform, carrying exactly the
quantities that govern the paper's results --

- HBM bandwidth and FP64 throughput (roofline, the kernels are
  memory-bound SpMV variants);
- kernel-launch overhead and stream overlap (§IV: the aprod2 kernels
  run on concurrent streams);
- kernel geometry (threads/block) vs. the device's sweet spot (§V-B:
  PSTL's fixed 256 threads/block is efficient on H100/A100 and poor on
  T4/V100 whose optimum is 32);
- FP64 atomic implementation: native read-modify-write vs.
  compare-and-swap loops (§V-B: the MI250X results hinge on
  ``-munsafe-fp-atomics``);
- random-access transaction granularity (§V-B: non-coalesced accesses
  explain the MI250X gap);
- device memory capacity (which platforms fit the 10/30/60 GB
  problems at all).

Absolute seconds are calibrated to the same order of magnitude as the
paper; all figure reproductions depend only on *relative* efficiency.
"""

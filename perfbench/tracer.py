"""Observation of an unmodified ``oansim`` from outside the package.

Three pieces, all installed by rebinding names and removed by restoring
them, so the package itself carries no instrumentation:

* :class:`Rebinder` replaces *every* module-level binding of a function
  (``oansim.waveform.band_power``, ``oansim.subsystems.band_power``,
  ``oansim.band_power``, ...) and puts the originals back afterwards.
  Function-local imports such as the ones in ``onu_receive`` resolve the
  module attribute at call time, so they see the replacement too.
* :class:`DemodOps` counts demodulations (the benchmark's operations) and
  flags a demodulator that returns fewer bits than it was asked for.
* :class:`Trace` records a span around each public function of the layer
  modules and around each FFT entry point of ``scipy.fft`` and
  ``numpy.fft``.  A span's self time is its duration minus the time of
  its child spans; FFT calls are children of the layer that made them.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from collections import defaultdict

import numpy as np

#: Package modules traced as layers, in pipeline order.
LAYERS = ("scenarios", "subsystems", "devices", "channel", "waveform",
          "ofdm", "metrics")

#: Transform entry points shared by ``scipy.fft`` and ``numpy.fft``.
_FFT_1D = ("fft", "ifft", "rfft", "irfft", "hfft", "ihfft")
_FFT_2D = ("fft2", "ifft2", "rfft2", "irfft2")
_FFT_ND = ("fftn", "ifftn", "rfftn", "irfftn")
_SCIPY_ONLY = ("hfft2", "ihfft2", "hfftn", "ihfftn")
# real-input transforms: the transform length is the (padded) input length
_REAL_INPUT = ("rfft", "ihfft", "rfft2", "ihfft2", "rfftn", "ihfftn")

#: Span under which whole-record FFTs belong to the report's spectrum
#: snapshot (taken once per sweep point) rather than to the burst pipeline.
SNAPSHOT_SPAN = "waveform.psd"

ROOT_SPAN = "workload"

#: Longest transform counted as small: symbol-sized transforms (the OFDM
#: FFT is 256 points in every shipped config).
SMALL_FFT_MAX = 4096


class Rebinder:
    """Replace every binding of some objects in loaded modules; undo later.

    Only modules whose name starts with one of ``prefixes`` are searched.
    """

    def __init__(self, prefixes=("oansim",)):
        self.prefixes = tuple(prefixes)
        self._undo = []

    def install(self, replacements: dict) -> None:
        """Rebind each key object to its value wherever it is bound."""
        by_id = {id(orig): (orig, new) for orig, new in replacements.items()}
        for mod in list(sys.modules.values()):
            name = getattr(mod, "__name__", None)
            names = getattr(mod, "__dict__", None)
            if (not isinstance(name, str) or not isinstance(names, dict)
                    or not name.startswith(self.prefixes)):
                continue
            for attr, val in list(names.items()):
                hit = by_id.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])
                    self._undo.append((mod, attr, val))

    def restore(self) -> None:
        while self._undo:
            mod, attr, val = self._undo.pop()
            setattr(mod, attr, val)


class DemodOps:
    """Operation counter around ``oansim.ofdm.demodulate_ofdm``.

    A demodulation is one operation.  It fails when it raises or when it
    returns fewer than ``max_symbols * bits_per_symbol`` bits, the bits
    the pipeline would otherwise drop without notice.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.symbols = 0
        self.shortfall_bits = 0

    def snapshot(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed,
                "symbols": self.symbols,
                "shortfall_bits": self.shortfall_bits}

    def wrap(self, demodulate):
        signature = inspect.signature(demodulate)

        @functools.wraps(demodulate)
        def counted(*args, **kwargs):
            bound = signature.bind(*args, **kwargs).arguments
            self.attempted += 1
            try:
                bits, evm = demodulate(*args, **kwargs)
            except Exception:
                self.failed += 1
                raise
            per_symbol = bound["config"].bits_per_symbol
            got = int(np.asarray(bits).size)
            self.symbols += got // per_symbol
            max_symbols = bound.get("max_symbols")
            if max_symbols is not None and got < max_symbols * per_symbol:
                self.failed += 1
                self.shortfall_bits += max_symbols * per_symbol - got
            return bits, evm

        return counted


def _transform_size(name: str, args, kwargs, out) -> tuple[int, int]:
    """(transform length, number of transforms) of one FFT call."""
    shape = np.shape(args[0])
    if len(args) == 1 and not kwargs and len(shape) == 1:
        # the common case: a whole 1-D array at its own length
        return (shape[0] if name in _REAL_INPUT else np.shape(out)[0]), 1
    ndim = len(shape)
    size_arg = kwargs.get("n", kwargs.get("s"))
    if size_arg is None and len(args) > 1:
        size_arg = args[1]
    axes_arg = kwargs.get("axis", kwargs.get("axes"))
    if axes_arg is None and len(args) > 2:
        axes_arg = args[2]
    if name in _FFT_1D:
        axes = [-1 if axes_arg is None else axes_arg]
    elif name in _FFT_2D or name in ("hfft2", "ihfft2"):
        axes = list(axes_arg) if axes_arg is not None else [-2, -1]
    else:
        if axes_arg is not None:
            axes = [axes_arg] if np.isscalar(axes_arg) else list(axes_arg)
        elif size_arg is not None:
            axes = list(range(-len(np.atleast_1d(size_arg)), 0))
        else:
            axes = list(range(ndim))
    axes = [a % max(ndim, 1) for a in axes]
    ref = shape if name in _REAL_INPUT else np.shape(out)
    lengths = [ref[a] for a in axes]
    if name in _REAL_INPUT and size_arg is not None:
        lengths = [int(v) for v in np.atleast_1d(size_arg)]
    length = max(1, math.prod(lengths))
    total = max(int(np.size(out)), int(np.prod(shape, dtype=np.int64)))
    return length, max(1, total // length)


class Trace:
    """Spans around public layer functions and FFT entry points.

    ``totals[name]`` holds calls, self seconds and input samples (the
    ``n`` of a first argument that has one).  FFT calls are also binned
    by transform length and whether they ran inside the spectrum
    snapshot, so they can be classified once the record length is known.
    """

    def __init__(self):
        self.stack: list[list] = []
        self.totals = defaultdict(lambda: [0, 0.0, 0])
        self.fft_bins = defaultdict(lambda: [0, 0.0, 0.0])  # calls, flops, bytes
        self._in_fft = False
        self._rebinder = Rebinder(("oansim", "scipy", "numpy"))

    # ------------------------------------------------------------ spans
    def _enter(self, name: str, args) -> list:
        frame = [name, time.perf_counter(), 0.0]
        self.stack.append(frame)
        if args:
            n = getattr(args[0], "n", None)
            if isinstance(n, int):
                self.totals[name][2] += n
        return frame

    def _exit(self, frame: list) -> float:
        duration = time.perf_counter() - frame[1]
        self.stack.pop()
        row = self.totals[frame[0]]
        row[0] += 1
        row[1] += duration - frame[2]
        if self.stack:
            self.stack[-1][2] += duration
        return duration

    def run(self, fn, *args, **kwargs):
        """Call ``fn`` inside the root span; returns (result, seconds)."""
        frame = self._enter(ROOT_SPAN, ())
        try:
            result = fn(*args, **kwargs)
        finally:
            duration = self._exit(frame)
        return result, duration

    def _span(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self._enter(name, args)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(frame)
        return traced

    def _fft(self, name: str, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self._in_fft:          # a transform built from another one
                return fn(*args, **kwargs)
            self._in_fft = True
            frame = self._enter("fft", ())
            try:
                out = fn(*args, **kwargs)
            finally:
                self._exit(frame)
                self._in_fft = False
            length, batch = _transform_size(name, args, kwargs, out)
            snapshot = length > SMALL_FFT_MAX and any(
                f[0] == SNAPSHOT_SPAN for f in self.stack)
            row = self.fft_bins[(length, snapshot)]
            row[0] += 1
            row[1] += 5.0 * length * math.log2(length) * batch
            row[2] += getattr(args[0], "nbytes", 0) + getattr(out, "nbytes", 0)
            return out
        return counted

    # ------------------------------------------------------ install/restore
    def install(self) -> None:
        """Wrap every public layer function and FFT entry point."""
        import numpy.fft
        import scipy.fft

        replacements = {}
        for layer in LAYERS:
            module = sys.modules[f"oansim.{layer}"]
            for attr, val in vars(module).items():
                if (inspect.isfunction(val) and not attr.startswith("_")
                        and val.__module__ == module.__name__):
                    replacements[val] = self._span(f"{layer}.{attr}", val)
        for module, names in (
                (scipy.fft, _FFT_1D + _FFT_2D + _FFT_ND + _SCIPY_ONLY),
                (numpy.fft, _FFT_1D + _FFT_2D + _FFT_ND)):
            for attr in names:
                fn = getattr(module, attr)
                replacements[fn] = self._fft(attr, fn)
        self._rebinder.install(replacements)

    def restore(self) -> None:
        self._rebinder.restore()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()

    # ------------------------------------------------------------ results
    def self_s(self, name: str) -> float:
        return self.totals[name][1] if name in self.totals else 0.0

    def calls(self, name: str) -> int:
        return self.totals[name][0] if name in self.totals else 0

    def samples_in(self, name: str) -> int:
        return self.totals[name][2] if name in self.totals else 0

    def fft_summary(self, record_n: int) -> dict:
        """FFT counts classified against the record length ``record_n``.

        A transform exactly ``record_n`` long is whole-record and one of
        at most ``SMALL_FFT_MAX`` points is small; the rest (the
        correlations of preamble search, for example) count only towards
        flops and bytes.  Whole-record transforms inside the spectrum
        snapshot are counted apart.  Flops (5 n log2 n per transform) and
        bytes (input plus output arrays) are computed, not measured.
        """
        out = {"whole_record": 0, "small": 0, "snapshot": 0,
               "flops": 0.0, "bytes": 0.0}
        for (length, snapshot), (calls, flops, nbytes) in self.fft_bins.items():
            out["flops"] += flops
            out["bytes"] += nbytes
            if length == record_n and snapshot:
                out["snapshot"] += calls
            elif length == record_n:
                out["whole_record"] += calls
            elif length <= SMALL_FFT_MAX:
                out["small"] += calls
        return out

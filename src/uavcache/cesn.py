"""Echo-state network engine with conceptor-managed pattern memory.

One model learns several temporal patterns in a single reservoir.  Each loaded
pattern gets a conceptor C = R (R + aperture^-2 I)^-1 of the correlation R of
the reservoir states the pattern visits.  Every conceptor, a pattern's or the
running memory's, is kept as R's eigenbasis: ``Conceptor(u, lam, aperture)``
with R = u diag(lam) u^T.  C shares those eigenvectors, with eigenvalues
s = lam / (lam + aperture^-2), and is applied as u (s * u^T v), never formed.
All conceptors come from one helper that eigendecomposes the smaller Gram of a
factor Z with R = Z Z^T (Jaeger 2014, arXiv:1403.3369, section 3) and drops
directions whose s is at most ``linalg.CONCEPTOR_S_CUT`` (1e-6).  A paper-scale
content pattern keeps 10 of its N = 1,000 directions and a mobility pattern
about 160; each dropped direction adds at most 1e-6 to sum(s).  A model file
that stores a direction at or below the cut was saved under another cut, and
``load_model`` refuses it.

The conceptor does two jobs:

* During incremental loading, the complement of the OR of all existing
  conceptors (the reservoir's *free memory*) masks the state directions a new
  pattern is allowed to write into, so earlier patterns are not disturbed.
  The OR is the conceptor of the summed correlations, built from the
  operands' factors side by side, so the model keeps it as one running
  conceptor (``EsnModel.memory``) and ORs in each new pattern once.  The free
  memory I - M is applied as v - M v, and its quota is 1 - sum(s) / N.
* During recall, the pattern's conceptor filters the autonomous state update,
  which replays that pattern without external input: the input simulation
  D = w_in B reproduces the input drive from the state.  Only ``b`` = B (input
  width x N) is kept: trained at load time, it reads the inputs from the states.
  The update of B is a ridge system (X X^T + a I)^-1 X Y over a pattern's T
  state columns, which ``linalg.solve_ridge`` solves in the smaller of N and T.

The linear readout is ridge-regressed jointly over every loaded pattern's
states, so one output matrix serves all patterns; its sums are added up one
pattern at a time.

A model's life has four steps:

1. ``load_patterns`` with one or more patterns.  It checks every pattern and
   drives them together as one state block (``drive``): a pattern's states
   depend on ``w`` and ``w_in`` alone, so patterns are independent until they
   are loaded.  Then ``load_pattern`` stores each in order on its states: it
   updates B, buffers the states and targets for the readout and ORs the
   pattern's conceptor into the running memory.
2. ``train_readout`` fits the readout and records each pattern's fit NRMSE.
   Steps 1 and 2 may alternate: a pattern loaded after a readout joins the
   next one.
3. ``release_training_state`` drops the running memory and the buffers, which
   are most of a trained model's bytes.  What is left is what recall needs:
   ``w`` as its nonzeros, ``w_in``, ``b``, ``w_out``, the pattern conceptors
   and the patterns' final states.  A released model and one restored by
   ``load_model`` hold the same state and both refuse further training with
   ``ReadOnlyModel``; only the released one still reports its fit NRMSEs,
   which the model file does not store.
4. ``recall`` replays stored patterns together, as one state block.
"""

from __future__ import annotations

import dataclasses
import json
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import linalg
from .config import (ConfigError, EsnConfig, RandomSource, esn_violations, load_esn_dict,
                     parse_document)

# Free-memory fraction below which further loading must grow the reservoir.
QUOTA_MIN = 0.01

MODEL_FORMAT_VERSION = 5


class MemoryExhausted(RuntimeError):
    """Reservoir memory is fully allocated; retrain with a larger reservoir."""


class UntrainedModel(RuntimeError):
    pass


class TooFewSamples(ValueError):
    """A pattern has no samples left once the washout is dropped."""


class ReadOnlyModel(RuntimeError):
    """A released or loaded model has no running memory or training buffers to train on."""


def validate_esn(cfg: EsnConfig) -> None:
    problems = esn_violations(cfg)
    if problems:
        raise ValueError("; ".join(f"esn.{problem}" for problem in problems))


# -- conceptor algebra --------------------------------------------------------


@dataclass(frozen=True)
class Conceptor:
    """State-subspace filter of a pattern, or of the OR of several.

    ``u`` (N x rank) holds the eigenvectors of the source state correlation R
    and ``lam`` their eigenvalues, so R = u diag(lam) u^T on the kept
    directions.  The conceptor C = u diag(s) u^T, with eigenvalues
    s = lam / (lam + aperture^-2) in (0, 1), is applied as u (s * u^T v) and
    never formed.
    """

    u: np.ndarray
    lam: np.ndarray
    aperture: float

    @property
    def s(self) -> np.ndarray:
        return _conceptor_eigenvalues(self.lam, self.aperture)


def _conceptor_eigenvalues(lam: np.ndarray, aperture: float) -> np.ndarray:
    """s = lam / (lam + aperture^-2) of correlation eigenvalues ``lam``; an aperture whose
    -2nd power overflows gives s = 0."""
    with np.errstate(over="ignore"):
        return lam / (lam + np.float64(aperture) ** -2)


def _conceptor_of_factor(z: np.ndarray, aperture: float) -> Conceptor:
    """Conceptor of R = Z Z^T, from the eigendecomposition of the smaller Gram.

    With fewer columns than rows, Z^T Z = V diag(lam) V^T gives R's
    eigenvectors as Z V diag(lam)^-1/2.  Directions whose s is at most
    ``linalg.CONCEPTOR_S_CUT`` are dropped.
    """
    n, k = z.shape
    lam, vecs = linalg.sym_eig(z.T @ z if k < n else z @ z.T)
    keep = _conceptor_eigenvalues(lam, aperture) > linalg.CONCEPTOR_S_CUT
    lam, u = lam[keep], vecs[:, keep]
    if k < n:
        u = (z @ u) / np.sqrt(lam)
    # C order, as load_model restores it, so a loaded model recalls the same bits
    return Conceptor(u=np.ascontiguousarray(u), lam=lam, aperture=aperture)


def compute_conceptor(states: np.ndarray, aperture: float) -> Conceptor:
    """Conceptor of a state sequence given as columns (dim, n_steps): R = X X^T / T."""
    states = np.asarray(states, dtype=float)
    if states.ndim != 2 or states.shape[1] < 1:
        raise ValueError("need at least one state column")
    return _conceptor_of_factor(states / np.sqrt(states.shape[1]), aperture)


def conceptor_or(a: Conceptor, b: Conceptor) -> Conceptor:
    """The conceptor of the summed correlations, from both operands' factors u sqrt(lam)."""
    if a.aperture != b.aperture:
        raise ValueError(f"aperture mismatch: {a.aperture} vs {b.aperture}")
    if a.u.shape[0] != b.u.shape[0]:
        raise ValueError(f"dimension mismatch: {a.u.shape[0]} vs {b.u.shape[0]}")
    z = np.concatenate([a.u * np.sqrt(a.lam), b.u * np.sqrt(b.lam)], axis=1)
    return _conceptor_of_factor(z, a.aperture)


def free_memory(memory: Conceptor | None, dim: int) -> float:
    """Free-memory fraction 1 - trace(memory) / dim, where ``memory`` is the OR
    of all stored conceptors (``None`` for an empty reservoir)."""
    return 1.0 if memory is None else 1.0 - float(memory.s.sum()) / dim


# -- model --------------------------------------------------------------------


class EsnModel:
    """A reservoir with conceptor memory and a jointly trained readout.

    ``input_dim`` and ``output_dim`` describe the model's task; ``cfg`` holds
    only its hyperparameters.
    """

    def __init__(self, cfg: EsnConfig, input_dim: int, output_dim: int, rs: RandomSource):
        validate_esn(cfg)
        self.cfg = cfg
        self.input_dim = input_dim
        self.output_dim = output_dim
        n = cfg.reservoir_size
        self.w = linalg.random_reservoir(n, cfg.density, cfg.spectral_radius,
                                         rs.derive("reservoir"))
        rng = rs.derive("input").generator()
        self.w_in = cfg.input_scale * rng.uniform(-1.0, 1.0, (n, input_dim))
        self.b = np.zeros((input_dim, n))
        self.w_out: np.ndarray | None = None
        self.conceptors: list[Conceptor] = []
        # OR of every stored conceptor
        self.memory: Conceptor | None = None
        self.pattern_states: list[np.ndarray] = []
        self.quota_history: list[float] = [1.0]
        # Training state: each pattern's kept states and targets for the readout.
        self._train_states: list[np.ndarray] = []
        self._train_targets: list[np.ndarray] = []
        # Readout fit per pattern (None if undefined), set by train_readout; kept after release.
        self._fit_nrmse: list[float | None] = []

    @property
    def n_patterns(self) -> int:
        return len(self.conceptors)

    @property
    def w(self) -> np.ndarray:
        """The N x N reservoir, rebuilt from its nonzeros on every read: read it once per call,
        and keep nothing of it on the model."""
        n = self.cfg.reservoir_size
        w = np.zeros(n * n)
        w[self._w_index] = self._w_value
        return w.reshape(n, n)

    @w.setter
    def w(self, w: np.ndarray) -> None:
        """Keep only the nonzeros: flat int32 indices (N^2 <= MAX_RESERVOIR_SIZE^2 < 2^31)
        and their float64 values."""
        # a boolean mask is several times faster to scan than the floats
        self._w_index = np.flatnonzero(w != 0.0).astype(np.int32)
        self._w_value = w.ravel()[self._w_index]

    def drive(self, inputs: Sequence[np.ndarray]) -> list[np.ndarray]:
        """Run the input-driven update of several patterns together, each from a zero state.

        ``inputs`` holds each pattern's (T_p, input width) inputs.  The patterns
        step as the rows of one (P, N) state block, longest first, so a step is
        one product with ``w`` for every pattern still running; a shorter
        pattern leaves the block when it ends.  Returns each pattern's states as
        columns (N, T_p), in the given order.
        """
        inputs = [np.atleast_2d(np.asarray(u, dtype=float)) for u in inputs]
        for u in inputs:
            if u.shape[1] != self.input_dim:
                raise ValueError(f"input dim {u.shape[1]} != model dim {self.input_dim}")
        if not inputs:
            return []
        order = sorted(range(len(inputs)), key=lambda p: -len(inputs[p]))
        lengths = [len(inputs[p]) for p in order]
        # row j of the block steps pattern order[j], and its states fill out[j]
        block_inputs = np.zeros((lengths[0], len(order), self.input_dim))
        for j, p in enumerate(order):
            block_inputs[:lengths[j], j] = inputs[p]
        # one array per pattern: freeing one array of every pattern's states
        # would raise glibc's mmap threshold and the process's peak RSS
        out = [np.empty((length, self.cfg.reservoir_size)) for length in lengths]
        v = np.zeros((len(order), self.cfg.reservoir_size))
        w = self.w
        running = len(order)
        for t in range(lengths[0]):
            while lengths[running - 1] <= t:
                running -= 1
            v[:running] = np.tanh(v[:running] @ w.T
                                  + block_inputs[t, :running] @ self.w_in.T)
            for j in range(running):
                out[j][t] = v[j]
        states = {p: out[j].T for j, p in enumerate(order)}
        return [states[p] for p in range(len(inputs))]

    def load_patterns(self, patterns: Sequence[tuple[np.ndarray, np.ndarray]],
                      names: Sequence[str] | None = None) -> list[dict]:
        """Store patterns in order, given as (inputs, targets) pairs.

        Every pattern is checked before any is driven, and an error names the
        pattern by ``names`` (default "pattern i", i its index in the model).
        The patterns are driven together, then ``load_pattern`` stores each on
        its states.  Returns ``load_pattern``'s reports.
        """
        self._check_trainable()
        patterns = [(np.atleast_2d(np.asarray(inputs, dtype=float)),
                     np.atleast_2d(np.asarray(targets, dtype=float)))
                    for inputs, targets in patterns]
        if names is None:
            names = [f"pattern {self.n_patterns + i}" for i in range(len(patterns))]
        for name, (inputs, targets) in zip(names, patterns, strict=True):
            self._check_pattern(name, inputs, targets)
        states = self.drive([inputs for inputs, _ in patterns])
        return [self.load_pattern(inputs, targets, x)
                for (inputs, targets), x in zip(patterns, states)]

    def _check_pattern(self, name: str, inputs: np.ndarray, targets: np.ndarray) -> None:
        if inputs.shape[1] != self.input_dim:
            raise ValueError(f"{name}: input width {inputs.shape[1]} != model width "
                             f"{self.input_dim}")
        if targets.shape[1] != self.output_dim:
            raise ValueError(f"{name}: target width {targets.shape[1]} != model width "
                             f"{self.output_dim}")
        if inputs.shape[0] != targets.shape[0]:
            raise ValueError(f"{name}: {inputs.shape[0]} input rows but {targets.shape[0]} "
                             "target rows")
        if inputs.shape[0] <= self.cfg.washout:
            raise TooFewSamples(f"{name}: {inputs.shape[0]} samples leave none after the "
                                f"washout of {self.cfg.washout}; lower esn.washout or train "
                                "longer")

    def load_pattern(self, inputs: np.ndarray, targets: np.ndarray, states: np.ndarray) -> dict:
        """Store one pattern on its driven states: update B inside the free memory, add
        its conceptor.

        ``load_patterns`` checks the pattern and drives it to ``states``.
        Returns a small report with the free-memory quota before and after.
        """
        n = self.cfg.reservoir_size
        quota_before = free_memory(self.memory, n)
        if quota_before <= QUOTA_MIN:
            raise MemoryExhausted(
                f"free memory {quota_before:.4f} <= {QUOTA_MIN}; retrain with a larger reservoir"
            )

        keep = slice(self.cfg.washout, states.shape[1])
        v_old = np.concatenate([np.zeros((n, 1)), states[:, :-1]], axis=1)[:, keep]

        # the old states inside the free memory I - M of the running memory M
        m = self.memory
        s = v_old if m is None else v_old - m.u @ (m.s[:, None] * (m.u.T @ v_old))
        # ridge regression (S S^T / T + a I)^-1 S e^T / T of the input error e, T scaled out
        error = inputs[keep].T - self.b @ v_old
        self.b = self.b + linalg.solve_ridge(s, self.cfg.aperture ** -2 * s.shape[1], error.T).T

        c = compute_conceptor(states[:, keep], self.cfg.aperture)
        self.memory = c if self.memory is None else conceptor_or(self.memory, c)
        self.conceptors.append(c)
        self.pattern_states.append(states[:, -1].copy())
        self._train_states.append(states[:, keep])
        self._train_targets.append(targets[keep].T)

        quota_after = free_memory(self.memory, n)
        self.quota_history.append(quota_after)
        return {
            "pattern": self.n_patterns - 1,
            "quota_before": quota_before,
            "quota_after": quota_after,
            "quota_used": quota_before - quota_after,
        }

    def _check_trainable(self) -> None:
        if self.conceptors and self.memory is None:
            raise ReadOnlyModel(f"model holds {self.n_patterns} patterns but no running memory "
                                "or training buffers (released, or restored by load_model); "
                                "retrain it to change it")

    def train_readout(self) -> np.ndarray:
        """Ridge-regress the readout over the states of every loaded pattern.

        Also records each pattern's fit NRMSE, which ``training_nrmse`` reads.
        """
        self._check_trainable()
        if not self._train_states:
            raise UntrainedModel("no patterns loaded")
        lam = self.cfg.ridge
        # sums over the patterns, one pattern at a time: no copy of all states
        gram = lam ** 2 * np.eye(self.cfg.reservoir_size)
        cross = np.zeros((self.cfg.reservoir_size, len(self._train_targets[0])))
        for v, y in zip(self._train_states, self._train_targets):
            gram += v @ v.T
            cross += v @ y.T
        if lam > 0.0:
            self.w_out = linalg.solve_spd(gram, cross).T
        else:
            self.w_out = (linalg.pinv(gram) @ cross).T
        self._fit_nrmse = []
        for v, y in zip(self._train_states, self._train_targets):
            try:
                self._fit_nrmse.append(nrmse(self.w_out @ v, y))
            except ValueError:  # identically zero targets have no NRMSE
                self._fit_nrmse.append(None)
        return self.w_out

    def release_training_state(self) -> None:
        """Drop the running memory and the training buffers; keep what recall needs.

        Recall needs ``w`` (kept as its nonzeros), ``w_in``, ``b``, ``w_out``,
        the pattern conceptors and the patterns' final states.
        The model is then in the state ``load_model`` gives: ``load_pattern``
        and ``train_readout`` raise ``ReadOnlyModel``.  Only the fit figures
        of ``training_nrmse`` stay, as a report of the training just done.
        """
        self.memory = None
        self._train_states = []
        self._train_targets = []

    def training_nrmse(self, pattern: int) -> float:
        """Readout fit quality on one pattern's training states, as ``train_readout`` found it."""
        if self.w_out is None:
            raise UntrainedModel("readout not trained")
        if not (0 <= pattern < len(self._fit_nrmse)):
            raise IndexError(f"pattern {pattern} has no recorded fit")
        fit = self._fit_nrmse[pattern]
        if fit is None:
            raise ValueError(f"pattern {pattern} has identically zero targets; NRMSE undefined")
        return fit

    def recall(self, patterns: Sequence[int], steps: int) -> np.ndarray:
        """Autonomous conceptor-filtered replay of several stored patterns together.

        Each pattern's run starts from its final training state, so the replay
        continues its training sequence in phase.  The patterns step as the
        rows of one (P, N) state block x: one product with w + w_in b per step,
        then u_p (s_p * u_p^T tanh(.)) per row, with the conceptor factors
        stacked as ``save_model`` stores them.  Returns (P, steps, output width).
        """
        patterns = list(patterns)
        for p in patterns:
            if not (0 <= p < self.n_patterns):
                raise IndexError(f"pattern {p} not loaded (have {self.n_patterns})")
        if self.w_out is None:
            raise UntrainedModel("readout not trained")
        u, lam = _stacked_factors([self.conceptors[p] for p in patterns],
                                  self.cfg.reservoir_size)
        s = _conceptor_eigenvalues(lam, self.cfg.aperture)[:, :, None]
        ut = u.transpose(0, 2, 1)
        v = np.stack([self.pattern_states[p] for p in patterns])
        wd = self.w
        wd += self.w_in @ self.b
        outputs = np.empty((len(patterns), steps, self.output_dim))
        for t in range(steps):
            x = np.tanh(v @ wd.T)
            v = (u @ (s * (ut @ x[:, :, None])))[:, :, 0]
            outputs[:, t] = v @ self.w_out.T
        return outputs


def _stacked_factors(conceptors: list[Conceptor], dim: int) -> tuple[np.ndarray, np.ndarray]:
    """The conceptors' (P, dim, rank) ``u`` and (P, rank) ``lam``, each zero-padded to the
    largest rank; a zero eigenvalue adds nothing to a conceptor."""
    rank = max((len(c.lam) for c in conceptors), default=0)
    us, lams = np.zeros((len(conceptors), dim, rank)), np.zeros((len(conceptors), rank))
    for c, u, lam in zip(conceptors, us, lams):
        u[:, :len(c.lam)], lam[:len(c.lam)] = c.u, c.lam
    return us, lams


def nrmse(predicted, truth) -> float:
    """Root-mean-square error normalized by the truth's variance.

    For a nonzero constant truth (zero variance) the mean square of the truth
    is used as the normalizer, which makes the score a relative RMS error; an
    identically zero truth is rejected.
    """
    predicted = np.asarray(predicted, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if predicted.shape != truth.shape:
        raise ValueError(f"shape mismatch: {predicted.shape} vs {truth.shape}")
    mse = float(np.mean((predicted - truth) ** 2))
    var = float(truth.var())
    power = float(np.mean(truth ** 2))
    # Rounding makes the variance of a constant signal tiny but nonzero, so
    # treat anything below a relative floor as constant.
    if var > linalg.CONSTANT_SIGNAL_RTOL * power:
        return float(np.sqrt(mse / var))
    if power > 0.0:
        return float(np.sqrt(mse / power))
    raise ValueError("truth signal is identically zero; NRMSE undefined")


# -- serialization -------------------------------------------------------------


def _write_npz_deterministic(path, arrays: dict) -> None:
    """npz writer with pinned zip metadata so equal arrays give equal bytes."""
    import io
    import zipfile

    with zipfile.ZipFile(path, "w", compression=zipfile.ZIP_DEFLATED) as zf:
        for name, array in arrays.items():
            buf = io.BytesIO()
            np.lib.format.write_array(buf, np.asarray(array))
            info = zipfile.ZipInfo(name + ".npy", date_time=(1980, 1, 1, 0, 0, 0))
            info.compress_type = zipfile.ZIP_DEFLATED
            zf.writestr(info, buf.getvalue())


def save_model(model: EsnModel, path) -> None:
    """Write a trained model's recall state; an untrained model raises ``UntrainedModel``."""
    if model.w_out is None:
        raise UntrainedModel("readout not trained")
    cfg_doc = json.dumps(dataclasses.asdict(model.cfg))
    us, lams = _stacked_factors(model.conceptors, model.cfg.reservoir_size)
    _write_npz_deterministic(path, {
        "format_version": np.int64(MODEL_FORMAT_VERSION),
        "cfg": np.frombuffer(cfg_doc.encode("utf-8"), dtype=np.uint8),
        "w": model.w,
        "w_in": model.w_in,
        "b": model.b,
        "w_out": model.w_out,
        "conceptor_u": us,
        "conceptor_lam": lams,
        "pattern_states": np.stack(model.pattern_states),
        "quota_history": np.asarray(model.quota_history),
    })


def _check_arrays(cfg: EsnConfig, arrays: dict) -> None:
    """Raise ``ConfigError`` unless every stored array is finite float64, as ``save_model``
    writes it, and fits the model's sizes, and every stored eigenvalue is nonnegative and,
    unless it is a row's zero padding, kept by ``linalg.CONCEPTOR_S_CUT``."""
    n, p, width = cfg.reservoir_size, len(arrays["conceptor_lam"]), arrays["w_in"].shape[-1:]
    rank = arrays["conceptor_u"].shape[-1:]
    expected = {"w": (n, n), "w_in": (n,) + width, "b": width + (n,),
                "w_out": arrays["w_out"].shape[:1] + (n,), "conceptor_u": (p, n) + rank,
                "conceptor_lam": (p,) + rank, "pattern_states": (p, n), "quota_history": (p + 1,)}
    for name, shape in expected.items():
        if arrays[name].dtype != np.float64:
            raise ConfigError([f"{name} has dtype {arrays[name].dtype}, not float64"])
        if arrays[name].shape != shape:
            raise ConfigError([f"{name} has shape {arrays[name].shape}, not {shape}, in a model "
                               f"of {n} reservoir units and {p} patterns"])
        if not np.isfinite(arrays[name]).all():
            raise ConfigError([f"{name} has a non-finite entry"])
    lam = arrays["conceptor_lam"]
    if (lam < 0.0).any():
        raise ConfigError(["conceptor_lam has a negative eigenvalue"])
    lam = lam[lam > 0.0]
    if (_conceptor_eigenvalues(lam, cfg.aperture) <= linalg.CONCEPTOR_S_CUT).any():
        raise ConfigError([f"conceptor_lam keeps a direction whose s is at most the conceptor "
                           f"cut {linalg.CONCEPTOR_S_CUT:g}: the model was saved under another "
                           "cut; retrain the models"])


def load_model(path) -> EsnModel:
    """Restore a trained model for recall; loaded models cannot accept new patterns.

    A file whose contents fail a check, its stored ``esn`` block's included, raises
    ``ConfigError``."""
    with np.load(path) as data:
        arrays = dict(data)
    version, stored = arrays["format_version"], arrays["cfg"]
    if (version.dtype, version.ndim, stored.dtype, stored.ndim) != (np.int64, 0, np.uint8, 1):
        raise ConfigError([f"format_version is {version.ndim}-d {version.dtype} and cfg "
                           f"{stored.ndim}-d {stored.dtype}, not 0-d int64 and 1-d uint8"])
    if version != MODEL_FORMAT_VERSION:
        raise ConfigError([f"model format version {version} is not the supported "
                           f"version {MODEL_FORMAT_VERSION}; retrain the models"])
    cfg = load_esn_dict(parse_document(bytes(stored).decode("utf-8")))
    _check_arrays(cfg, arrays)
    model = EsnModel.__new__(EsnModel)
    model.cfg = cfg
    model.w, model.w_in, model.b, model.w_out = (arrays[k] for k in ("w", "w_in", "b", "w_out"))
    model.input_dim = model.w_in.shape[1]
    model.output_dim = model.w_out.shape[0]
    # zero eigenvalues only pad a row; they add nothing to the conceptor
    model.conceptors = [Conceptor(u=np.ascontiguousarray(u[:, lam > 0.0]), lam=lam[lam > 0.0],
                                  aperture=cfg.aperture)
                        for u, lam in zip(arrays["conceptor_u"], arrays["conceptor_lam"])]
    model.pattern_states = list(arrays["pattern_states"])
    model.quota_history = [float(q) for q in arrays["quota_history"]]
    model._fit_nrmse = []
    model.release_training_state()
    return model

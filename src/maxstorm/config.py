"""Config files: flat INI-style key-value sections, strictly validated.

Every key must appear in the schema for its section and parse under the
declared type; unknown sections or keys are rejected outright rather than
ignored, since a silently dropped misspelling is the easiest way to run a
study with the wrong parameters.  One file can drive several commands:
each command reads the sections it needs and leaves the rest alone.
"""

from __future__ import annotations

import configparser
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

from .dependence import LagSpec
from .errors import ValidationError
from .geometry import RotationSpec, SiteSet, fibonacci_sphere, square_grid
from .inference import FitOptions, ThetaVector
from .spacetime import MarkovParams
from .spatial import _SCHLATHER_STORMS, SchlatherParams, SmithParams, VmfParams

__all__ = ["StudyConfig"]

# The neutral start of every study fit, and of a [fit] without init_* keys:
# identity storm covariance, a = 0.5 and no translation.
_NEUTRAL_START = ThetaVector(1.0, 0.0, 1.0, 0.5, 0.0, 0.0)

# type codes: int, float, pair (two floats), triple (three floats),
# lags (semicolon list of "l:h1,h2"), choice:...alternatives
_SCHEMA: dict[str, dict[str, str]] = {
    "model": {
        "kind": "choice:smith,schlather,vmf",
        "sigma11": "float",
        "sigma12": "float",
        "sigma22": "float",
        "c1": "float",
        "c2": "float",
        "kappa": "float",
    },
    "temporal": {
        "a": "float",
        "tau": "pair",
        "rotation_angle": "float",
        "rotation_axis": "triple",
    },
    "sites": {
        "layout": "choice:grid,uniform,fibonacci",
        "n_side": "int",
        "spacing": "float",
        "origin": "pair",
        "n_sites": "int",
        "low": "float",
        "high": "float",
    },
    "run": {
        "n_dates": "int",
        "seed": "int",
        "n_storms": "int",
    },
    "fit": {
        "scheme": "int",
        "init_sigma11": "float",
        "init_sigma12": "float",
        "init_sigma22": "float",
        "init_a": "float",
        "init_tau": "pair",
        "max_evals": "int",
        "xtol": "float",
        "ftol": "float",
        "max_time_lag": "float",
        "max_space_dist": "float",
    },
    "dependence": {
        "lags": "lags",
        "bin_radius": "float",
    },
    "study": {
        "replicates": "int",
        "scheme": "choice:1,2,both",
        "n_dates": "int",
        "n_sites": "int",
        "seed": "int",
        "low": "float",
        "high": "float",
        "max_evals": "int",
    },
}


def _parse_value(section: str, key: str, raw: str, code: str):
    where = f"[{section}] {key}"
    try:
        if code == "int":
            return int(raw)
        if code == "float":
            return float(raw)
        if code == "pair":
            parts = raw.replace(",", " ").split()
            if len(parts) != 2:
                raise ValueError("expected two numbers")
            return (float(parts[0]), float(parts[1]))
        if code == "triple":
            parts = raw.replace(",", " ").split()
            if len(parts) != 3:
                raise ValueError("expected three numbers")
            return tuple(float(p) for p in parts)
        if code == "lags":
            lags = []
            for chunk in raw.split(";"):
                chunk = chunk.strip()
                if not chunk:
                    continue
                lag_part, _, space_part = chunk.partition(":")
                if not space_part:
                    raise ValueError(
                        f"lag {chunk!r} must look like 'l:h1,h2'"
                    )
                h = space_part.replace(",", " ").split()
                if len(h) != 2:
                    raise ValueError(f"lag {chunk!r} needs two space components")
                lags.append(LagSpec(int(lag_part), (float(h[0]), float(h[1]))))
            if not lags:
                raise ValueError("no lags given")
            return tuple(lags)
        if code.startswith("choice:"):
            allowed = code[len("choice:"):].split(",")
            value = raw.strip()
            if value not in allowed:
                raise ValueError(f"must be one of {', '.join(allowed)}")
            return value
    except ValueError as exc:
        raise ValidationError(f"{where}: {exc}") from None
    raise AssertionError(f"unknown type code {code}")


def load_config(path: str | Path) -> dict[str, dict]:
    """Read and validate an INI config file into typed nested dicts."""
    path = Path(path)
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except configparser.Error as exc:
        raise ValidationError(f"{path}: {exc}") from None
    out: dict[str, dict] = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            known = ", ".join(sorted(_SCHEMA))
            raise ValidationError(
                f"{path}: unknown section [{section}]; known sections: {known}"
            )
        table = _SCHEMA[section]
        out[section] = {}
        for key, raw in parser.items(section):
            if key not in table:
                known = ", ".join(sorted(table))
                raise ValidationError(
                    f"{path}: unknown key {key!r} in [{section}]; known keys: {known}"
                )
            out[section][key] = _parse_value(section, key, raw, table[key])
    return out


def _need(cfg: dict, section: str, key: str):
    try:
        return cfg[section][key]
    except KeyError:
        raise ValidationError(f"config is missing required key [{section}] {key}") from None


def _get(cfg: dict, section: str, key: str, default):
    return cfg.get(section, {}).get(key, default)


def _need_seed(cfg: dict, section: str) -> int:
    # Checked here so that a command fails before it writes or runs anything.
    seed = _need(cfg, section, "seed")
    if seed < 0:
        raise ValidationError(f"[{section}] seed must be >= 0, got {seed}")
    return seed


@dataclass(frozen=True)
class SimulateConfig:
    kind: str
    spatial: SmithParams | SchlatherParams | VmfParams
    markov: MarkovParams
    sites: SiteSet
    n_dates: int
    seed: int
    n_storms: int

    def echo(self) -> dict:
        d: dict = {
            "model.kind": self.kind,
            "run.n_dates": self.n_dates,
            "run.seed": self.seed,
            "temporal.a": self.markov.a,
            "sites.count": len(self.sites),
            "sites.kind": self.sites.kind,
        }
        d.update({f"model.{k}": v for k, v in asdict(self.spatial).items()})
        if isinstance(self.spatial, SchlatherParams):
            d["run.n_storms"] = self.n_storms
        if self.markov.tau is not None:
            d["temporal.tau"] = list(self.markov.tau)
        if self.markov.rotation is not None:
            d["temporal.rotation_angle"] = self.markov.rotation.angle
            d["temporal.rotation_axis"] = list(self.markov.rotation.axis)
        return d


def _build_spatial(cfg: dict):
    kind = _need(cfg, "model", "kind")
    if kind == "smith":
        return kind, SmithParams(
            _get(cfg, "model", "sigma11", 1.0),
            _get(cfg, "model", "sigma12", 0.0),
            _get(cfg, "model", "sigma22", 1.0),
        )
    if kind == "schlather":
        return kind, SchlatherParams(
            _need(cfg, "model", "c1"), _need(cfg, "model", "c2")
        )
    return kind, VmfParams(_need(cfg, "model", "kappa"))


def _build_sites(cfg: dict, kind: str, seed: int) -> SiteSet:
    layout = _need(cfg, "sites", "layout")
    if kind == "vmf":
        if layout != "fibonacci":
            raise ValidationError(
                "spherical models need [sites] layout = fibonacci"
            )
        return fibonacci_sphere(_need(cfg, "sites", "n_sites"))
    if layout == "grid":
        return square_grid(
            _need(cfg, "sites", "n_side"),
            spacing=_get(cfg, "sites", "spacing", 1.0),
            origin=_get(cfg, "sites", "origin", (0.0, 0.0)),
        )
    if layout == "uniform":
        from .point_process import SeededStream

        low = _get(cfg, "sites", "low", 0.0)
        high = _get(cfg, "sites", "high", 10.0)
        if not high > low:
            raise ValidationError(f"[sites] high must exceed low, got {low}, {high}")
        n = _need(cfg, "sites", "n_sites")
        if n < 1:
            raise ValidationError(f"[sites] n_sites must be >= 1, got {n}")
        rng = SeededStream(seed, stream_id=2**31).generator()
        return SiteSet.planar(rng.uniform(low, high, size=(n, 2)))
    raise ValidationError("planar models need [sites] layout = grid or uniform")


def _build_markov(cfg: dict, kind: str) -> MarkovParams:
    a = _need(cfg, "temporal", "a")
    if kind == "vmf":
        angle = _need(cfg, "temporal", "rotation_angle")
        axis = _get(cfg, "temporal", "rotation_axis", (0.0, 0.0, 1.0))
        return MarkovParams(a, rotation=RotationSpec(angle, axis))
    tau = _need(cfg, "temporal", "tau")
    return MarkovParams(a, tau=tau)


def build_simulate_config(cfg: dict) -> SimulateConfig:
    kind, spatial = _build_spatial(cfg)
    seed = _need_seed(cfg, "run")
    n_dates = _need(cfg, "run", "n_dates")
    if n_dates < 1:
        raise ValidationError(f"[run] n_dates must be >= 1, got {n_dates}")
    # Only the Schlather model reads the storm cap.
    n_storms = _get(cfg, "run", "n_storms", _SCHLATHER_STORMS)
    if kind == "schlather" and n_storms < 1:
        raise ValidationError(f"[run] n_storms must be >= 1, got {n_storms}")
    return SimulateConfig(
        kind=kind,
        spatial=spatial,
        markov=_build_markov(cfg, kind),
        sites=_build_sites(cfg, kind, seed),
        n_dates=n_dates,
        seed=seed,
        n_storms=n_storms,
    )


@dataclass(frozen=True)
class DependenceConfig:
    smith: SmithParams
    markov: MarkovParams
    lags: tuple[LagSpec, ...]
    bin_radius: float


def build_dependence_config(cfg: dict) -> DependenceConfig:
    kind, spatial = _build_spatial(cfg)
    if kind != "smith":
        raise ValidationError(
            "dependence curves are exact for the planar smith model only; "
            f"got kind={kind}"
        )
    return DependenceConfig(
        smith=spatial,
        markov=_build_markov(cfg, kind),
        lags=_need(cfg, "dependence", "lags"),
        bin_radius=_get(cfg, "dependence", "bin_radius", 0.0),
    )


@dataclass(frozen=True)
class FitConfig:
    init: ThetaVector
    options: FitOptions
    scheme: int


def build_fit_config(cfg: dict, scheme: int | None = None) -> FitConfig:
    if scheme is None:
        scheme = _get(cfg, "fit", "scheme", None)
        if scheme is None:
            raise ValidationError(
                "fit scheme not given: pass --scheme or set [fit] scheme"
            )
    if scheme not in (1, 2):
        raise ValidationError(f"scheme must be 1 or 2, got {scheme}")
    fit = cfg.get("fit", {})
    start = {k[len("init_"):]: v for k, v in fit.items() if k.startswith("init_")}
    if "tau" in start:
        start["tau1"], start["tau2"] = start.pop("tau")
    init = replace(_NEUTRAL_START, **start)
    options = FitOptions(**{f.name: fit[f.name] for f in fields(FitOptions) if f.name in fit})
    return FitConfig(init=init, options=options, scheme=scheme)


@dataclass(frozen=True)
class StudyConfig:
    theta0: ThetaVector
    n_dates: int
    n_sites: int
    seed: int
    replicates: int
    scheme: str
    low: float
    high: float
    max_evals: int

    def echo(self) -> dict:
        d = {f"study.{f.name}": getattr(self, f.name) for f in fields(self) if f.name != "theta0"}
        d.update({f"truth.{k}": v for k, v in asdict(self.theta0).items()})
        return d


def build_study_config(cfg: dict, replicates: int | None = None) -> StudyConfig:
    kind, spatial = _build_spatial(cfg)
    if kind != "smith":
        raise ValidationError(f"the study fits the smith model only; got kind={kind}")
    markov = _build_markov(cfg, kind)
    tau = markov.tau_array()
    theta0 = ThetaVector(
        spatial.sigma11, spatial.sigma12, spatial.sigma22,
        markov.a, float(tau[0]), float(tau[1]),
    )
    if replicates is None:
        replicates = _need(cfg, "study", "replicates")
    if replicates < 2:
        raise ValidationError(f"need at least 2 replicates, got {replicates}")
    low = _get(cfg, "study", "low", 0.0)
    high = _get(cfg, "study", "high", 10.0)
    if not high > low:
        raise ValidationError(f"[study] high must exceed low, got {low}, {high}")
    # A pairwise fit needs two dates and two sites.
    n_dates, n_sites = _need(cfg, "study", "n_dates"), _need(cfg, "study", "n_sites")
    if n_dates < 2 or n_sites < 2:
        raise ValidationError(
            f"[study] n_dates and n_sites must be >= 2, got {n_dates}, {n_sites}"
        )
    return StudyConfig(
        theta0=theta0,
        n_dates=n_dates,
        n_sites=n_sites,
        seed=_need_seed(cfg, "study"),
        replicates=replicates,
        scheme=_get(cfg, "study", "scheme", "1"),
        low=low,
        high=high,
        max_evals=_get(cfg, "study", "max_evals", FitOptions.max_evals),
    )

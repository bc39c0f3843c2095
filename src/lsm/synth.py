"""Deterministic synthetic scenes with a planted susceptibility signal.

A scene consists of a DEM, a 14-band conditioning-factor stack (7 terrain
derivatives plus 7 weakly informative auxiliary fields), a 64-band
embedding-like stack (a seeded linear mix of the informative fields plus
noise), a landslide inventory drawn from a latent susceptibility surface,
and the latent surface itself. Everything is a pure function of the
configuration, so reruns are bit-identical.

The embedding stack sees the informative fields almost directly while the
conditioning stack sees them only diluted, which plants a known ordering
(embeddings more informative than conditioning factors) that the end-to-end
tests can check against.
"""

import json
import logging
import math
import os
from dataclasses import dataclass

import numpy as np

from lsm.evaluate import roc_auc
from lsm.grid import Grid, GridHeader, GridStack, derive_terrain, write_ascii_grid
from lsm.nn.autodiff import _sigmoid
from lsm.sampling import InventoryPoint

log = logging.getLogger(__name__)

NODATA = -9999.0
MIN_SPACING_M = 150.0
ORACLE_AUC_FLOOR = 0.95
MAX_REGENERATIONS = 20

# Keep landslides this many cells away from the border so that patch windows
# around them stay extractable; shrinks on toy-sized scenes.
PLACEMENT_MARGIN = 8

# Latent surface shape: the steep gain makes susceptibility near-binary, and
# the offset is chosen per scene so that the susceptible plateau (s > 0.5)
# covers a fixed fraction of the cells regardless of how the informative
# fields happen to combine. Both matter for the oracle-AUC floor below.
LATENT_GAIN = 45.0
PLATEAU_FRACTION = 0.15

# Share of informative signal in each auxiliary conditioning band.
WEAK_MIX = 0.25

N_AUX_BANDS = 7


@dataclass(frozen=True)
class SceneConfig:
    """Knobs of the scene generator; every field has a sensible default."""

    size: tuple = (128, 128)
    cellsize: float = 30.0
    seed: int = 42
    n_landslides: int = 130
    informative_bands: int = 4
    total_bands: int = 64
    correlation_length: float = 8.0
    noise_level: float = 0.2

    def __post_init__(self):
        nrows, ncols = self.size
        if nrows < 3 or ncols < 3:
            raise ValueError("scene must be at least 3x3")
        if not self.cellsize > 0:
            raise ValueError("cellsize must be positive")
        if self.n_landslides < 2:
            raise ValueError("n_landslides must be at least 2")
        if self.informative_bands < 1:
            raise ValueError("informative_bands must be at least 1")
        if self.informative_bands > self.total_bands:
            raise ValueError("informative_bands cannot exceed total_bands")
        if self.correlation_length < 0:
            raise ValueError("correlation_length must be non-negative")
        if self.noise_level < 0:
            raise ValueError("noise_level must be non-negative")

    def to_dict(self) -> dict:
        return {
            "size": list(self.size),
            "cellsize": self.cellsize,
            "seed": self.seed,
            "n_landslides": self.n_landslides,
            "informative_bands": self.informative_bands,
            "total_bands": self.total_bands,
            "correlation_length": self.correlation_length,
            "noise_level": self.noise_level,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SceneConfig":
        d = dict(d)
        if "size" in d:
            d["size"] = tuple(d["size"])
        return cls(**d)


@dataclass
class Scene:
    config: SceneConfig
    dem: Grid
    lcf_stack: GridStack
    embed_stack: GridStack
    inventory: list
    latent: Grid
    oracle_auc: float
    seed_used: int
    regenerated: int


def _rescale01(a: np.ndarray) -> np.ndarray:
    lo, hi = a.min(), a.max()
    if hi <= lo:
        return np.zeros_like(a)
    return (a - lo) / (hi - lo)


def _smoothed_noise(rng: np.random.Generator, shape: tuple, passes: int) -> np.ndarray:
    a = rng.random(shape)
    for _ in range(passes):
        p = np.pad(a, 1, mode="edge")
        a = (
            p[:-2, :-2] + p[:-2, 1:-1] + p[:-2, 2:]
            + p[1:-1, :-2] + p[1:-1, 1:-1] + p[1:-1, 2:]
            + p[2:, :-2] + p[2:, 1:-1] + p[2:, 2:]
        ) / 9.0
    return _rescale01(a)


def gen_field(seed, size: tuple, correlation_length: float, cellsize: float = 30.0) -> Grid:
    """A spatially correlated random field rescaled to [0, 1].

    Seeded white noise is box-smoothed ceil(correlation_length) times with a
    3x3 kernel (edge-replicated), so correlation_length = 0 returns rescaled
    raw noise. ``seed`` is anything numpy's default_rng accepts.
    """
    if correlation_length < 0:
        raise ValueError("correlation_length must be non-negative")
    nrows, ncols = size
    rng = np.random.default_rng(seed)
    values = _smoothed_noise(rng, (nrows, ncols), math.ceil(correlation_length))
    header = GridHeader(ncols=ncols, nrows=nrows, xllcorner=0.0, yllcorner=0.0,
                        cellsize=cellsize, nodata_value=NODATA)
    return Grid(header=header, values=values)


def _placement_margin(nrows: int, ncols: int) -> int:
    return min(PLACEMENT_MARGIN, (min(nrows, ncols) - 1) // 3)


def _place_landslides(rng: np.random.Generator, header: GridHeader,
                      s: np.ndarray, n: int) -> list:
    """Draw n cells weighted by s, no two closer than MIN_SPACING_M."""
    margin = _placement_margin(header.nrows, header.ncols)
    rows = np.arange(margin, header.nrows - margin)
    cols = np.arange(margin, header.ncols - margin)
    if rows.size == 0 or cols.size == 0:
        raise ValueError(f"unable to place {n} landslides: scene too small")
    rr, cc = np.meshgrid(rows, cols, indexing="ij")
    rr, cc = rr.ravel(), cc.ravel()
    weights = s[rr, cc]

    # Weighted order without replacement via Gumbel-perturbed log-weights.
    keys = np.log(weights) + rng.gumbel(size=weights.size)
    order = np.argsort(-keys)

    xs = header.xllcorner + (cc + 0.5) * header.cellsize
    ys = header.yllcorner + (header.nrows - rr - 0.5) * header.cellsize
    taken_x: list[float] = []
    taken_y: list[float] = []
    picked: list[int] = []
    for idx in order:
        if taken_x:
            d2 = (np.array(taken_x) - xs[idx]) ** 2 + (np.array(taken_y) - ys[idx]) ** 2
            if d2.min() < MIN_SPACING_M ** 2:
                continue
        picked.append(idx)
        taken_x.append(xs[idx])
        taken_y.append(ys[idx])
        if len(picked) == n:
            break
    if len(picked) < n:
        raise ValueError(
            f"unable to place {n} landslides with {MIN_SPACING_M:g} m spacing "
            f"(managed {len(picked)})"
        )
    return [InventoryPoint(float(xs[i]), float(ys[i]), 1) for i in picked]


def _oracle_auc(rng: np.random.Generator, header: GridHeader, s: np.ndarray,
                inventory: list) -> float:
    """AUC of the latent itself separating inventory cells from far field."""
    margin = _placement_margin(header.nrows, header.ncols)
    rows = np.arange(margin, header.nrows - margin)
    cols = np.arange(margin, header.ncols - margin)
    rr, cc = np.meshgrid(rows, cols, indexing="ij")
    rr, cc = rr.ravel(), cc.ravel()
    xs = header.xllcorner + (cc + 0.5) * header.cellsize
    ys = header.yllcorner + (header.nrows - rr - 0.5) * header.cellsize
    px = np.array([p.x for p in inventory])
    py = np.array([p.y for p in inventory])
    d2 = (xs[:, None] - px[None, :]) ** 2 + (ys[:, None] - py[None, :]) ** 2
    far = d2.min(axis=1) > MIN_SPACING_M ** 2
    far_idx = np.nonzero(far)[0]
    if far_idx.size == 0:
        return 0.0
    take = min(len(inventory), far_idx.size)
    chosen = rng.choice(far_idx, size=take, replace=False)
    cells = [header.cell_of(p.x, p.y) for p in inventory]
    pos = s[[r for r, _ in cells], [c for _, c in cells]]
    neg = s[rr[chosen], cc[chosen]]
    y = np.concatenate([np.ones(pos.size), np.zeros(neg.size)])
    scores = np.concatenate([pos, neg])
    _, auc = roc_auc(y, scores)
    return auc


def _generate(cfg: SceneConfig, seed: int) -> Scene:
    nrows, ncols = cfg.size
    header = GridHeader(ncols=ncols, nrows=nrows, xllcorner=0.0, yllcorner=0.0,
                        cellsize=cfg.cellsize, nodata_value=NODATA)
    m = cfg.informative_bands

    fields = np.stack([
        gen_field([seed, 1, i], cfg.size, cfg.correlation_length, cfg.cellsize).values
        for i in range(m)
    ])

    signs = np.where(np.arange(m) % 2 == 0, 1.0, -1.0)
    w = np.random.default_rng([seed, 2]).uniform(0.8, 1.2, m) * signs
    z = LATENT_GAIN * np.tensordot(w, fields - 0.5, axes=1) / math.sqrt(m)
    z -= np.quantile(z, 1.0 - PLATEAU_FRACTION)
    s = _sigmoid(z)
    latent = Grid(header=header, values=s)

    rough = gen_field([seed, 3], cfg.size, cfg.correlation_length, cfg.cellsize).values
    dem01 = _rescale01(0.55 * fields[0] + 0.45 * rough)
    dem = Grid(header=header, values=200.0 + 600.0 * dem01)
    terrain = derive_terrain(dem)

    aux = np.empty((N_AUX_BANDS, nrows, ncols))
    for j in range(N_AUX_BANDS):
        nz = gen_field([seed, 4, j], cfg.size, cfg.correlation_length, cfg.cellsize).values
        aux[j] = _rescale01(WEAK_MIX * fields[j % m] + (1.0 - WEAK_MIX) * nz)
    aux_names = tuple(f"aux_{j:02d}" for j in range(N_AUX_BANDS))
    lcf_stack = GridStack(header=header, names=terrain.names + aux_names,
                          data=np.concatenate([terrain.data, aux], axis=0))

    mix = np.random.default_rng([seed, 5]).normal(size=(m, cfg.total_bands)) / math.sqrt(m)
    flat = (fields - 0.5).reshape(m, -1).T
    emb = flat @ mix
    if cfg.noise_level > 0:
        emb = emb + cfg.noise_level * np.random.default_rng([seed, 6]).normal(size=emb.shape)
    emb = emb.T.reshape(cfg.total_bands, nrows, ncols)
    for b in range(cfg.total_bands):
        emb[b] = _rescale01(emb[b])
    embed_names = tuple(f"e{b:02d}" for b in range(cfg.total_bands))
    embed_stack = GridStack(header=header, names=embed_names, data=emb)

    inventory = _place_landslides(np.random.default_rng([seed, 7]), header, s,
                                  cfg.n_landslides)
    auc = _oracle_auc(np.random.default_rng([seed, 8]), header, s, inventory)

    return Scene(config=cfg, dem=dem, lcf_stack=lcf_stack, embed_stack=embed_stack,
                 inventory=inventory, latent=latent, oracle_auc=auc,
                 seed_used=seed, regenerated=0)


def gen_scene(cfg: SceneConfig) -> Scene:
    """Generate a scene, retrying with seed+1 while the planted signal is
    too weak for the latent oracle to reach the AUC floor."""
    seed = cfg.seed
    for attempt in range(MAX_REGENERATIONS + 1):
        scene = _generate(cfg, seed)
        if scene.oracle_auc >= ORACLE_AUC_FLOOR:
            scene.regenerated = attempt
            return scene
        log.warning("scene seed %d: oracle AUC %.4f below %.2f, regenerating with seed %d",
                    seed, scene.oracle_auc, ORACLE_AUC_FLOOR, seed + 1)
        seed += 1
    raise RuntimeError(
        f"could not generate a scene with oracle AUC >= {ORACLE_AUC_FLOOR} "
        f"after {MAX_REGENERATIONS + 1} attempts (seeds {cfg.seed}..{seed - 1})"
    )


def _write_band_dir(stack: GridStack, directory: str) -> list:
    os.makedirs(directory, exist_ok=True)
    entries = []
    for name in stack.names:
        path = os.path.join(directory, f"{name}.asc")
        write_ascii_grid(stack.grid(name), path)
        entries.append({"name": name,
                        "path": os.path.join(os.path.basename(directory), f"{name}.asc"),
                        "kind": "continuous"})
    return entries


def write_scene(scene: Scene, out_dir: str) -> dict:
    """Write all scene artifacts; returns a dict of the paths written.

    Layout: dem.asc, latent.asc, lcf/<band>.asc, embed/<band>.asc,
    lcf_manifest.json, embed_manifest.json (paths relative to out_dir),
    inventory.csv, scene.json.
    """
    os.makedirs(out_dir, exist_ok=True)
    paths = {}

    write_ascii_grid(scene.dem, os.path.join(out_dir, "dem.asc"))
    write_ascii_grid(scene.latent, os.path.join(out_dir, "latent.asc"))
    paths["dem"] = os.path.join(out_dir, "dem.asc")
    paths["latent"] = os.path.join(out_dir, "latent.asc")

    for key, stack in (("lcf", scene.lcf_stack), ("embed", scene.embed_stack)):
        entries = _write_band_dir(stack, os.path.join(out_dir, key))
        manifest = os.path.join(out_dir, f"{key}_manifest.json")
        with open(manifest, "w") as fh:
            json.dump(entries, fh, indent=2)
            fh.write("\n")
        paths[f"{key}_manifest"] = manifest

    inv_path = os.path.join(out_dir, "inventory.csv")
    with open(inv_path, "w") as fh:
        fh.write("x,y,label\n")
        for p in scene.inventory:
            fh.write(f"{p.x!r},{p.y!r},{p.label}\n")
    paths["inventory"] = inv_path

    s = scene.latent.values
    cells = [scene.latent.header.cell_of(p.x, p.y) for p in scene.inventory]
    slide_mean = float(np.mean([s[r, c] for r, c in cells]))
    meta = {
        "config": scene.config.to_dict(),
        "seed_used": scene.seed_used,
        "regenerated": scene.regenerated,
        "oracle_auc": scene.oracle_auc,
        "latent": {
            "mean": float(s.mean()),
            "std": float(s.std()),
            "min": float(s.min()),
            "max": float(s.max()),
            "landslide_mean": slide_mean,
        },
    }
    meta_path = os.path.join(out_dir, "scene.json")
    with open(meta_path, "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    paths["scene"] = meta_path
    return paths

"""Fit the synthetic descriptor model to the program's ORB output.

    python3 perfbench/fit_orb.py            # measure, compare, write orb_model.json
    python3 perfbench/fit_orb.py --check    # measure and compare only

The index workloads feed the program synthetic descriptor sets
(:class:`pb_common.DescriptorSynth`).  This script extracts ORB with the
program's ``OrbExtractor`` from the 72x96 scenes the fleet photographs
(``SceneGenerator.view``), fits a Gaussian-copula model of the 256 bits
to them, and prints the figures that set an LSH index's load, for the
real descriptors next to the model's:

- bit balance (mean ``|P(bit) - 0.5|``);
- Hamming distance between rows of unrelated images;
- bucket occupancy per LSH table (bucket size seen by a stored row);
- images voted per query over the stored images;
- re-captures: the share of a view's rows that mutually match its
  canonical view, their Hamming distance, and the Eq. 2 score;
- novel images: the brute-force maximum Eq. 2 score over the stored
  images.

The model keeps each bit's probability and the leading ``RANK``
factors of the bits' latent correlation (``sin(pi * phi / 2)`` of the
bits' phi coefficients).  Only the inputs are fitted here; the
benchmark never calls the program's ORB for its index workloads.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

import numpy as np

HERE = pathlib.Path(__file__).resolve().parent
MODEL = HERE / "orb_model.json"
#: Latent correlation factors kept; 16 already reproduces the bucket
#: occupancy and the unrelated-row Hamming spread within about 20%.
RANK = 16
#: Scene seeds of the fitted images (apart from any fleet run's).
STORED_SCENES, NOVEL_SCENES = 100_000, 900_000


def _extract(n_stored: int, n_novel: int, n_recaptures: int):
    from repro.features.orb import OrbExtractor
    from repro.imaging.synth import SceneGenerator

    generator = SceneGenerator(height=72, width=96)
    extractor = OrbExtractor()

    def orb(scene: int, view: int) -> np.ndarray:
        return extractor.extract(generator.view(scene, view)).descriptors

    stored = [orb(STORED_SCENES + s, 0) for s in range(n_stored)]
    novel = [orb(NOVEL_SCENES + s, 0) for s in range(n_novel)]
    step = max(1, n_stored // n_recaptures)
    recaptures = [
        (s, orb(STORED_SCENES + s, 1 + s % 37)) for s in range(0, n_stored, step)
    ][:n_recaptures]
    return stored, novel, recaptures


def fit(stored: "list[np.ndarray]") -> dict:
    bits = np.unpackbits(np.concatenate(stored), axis=1).astype(np.float64)
    probability = bits.mean(axis=0).clip(0.01, 0.99)
    phi = np.nan_to_num(np.corrcoef(bits.T))
    latent = np.sin(np.pi * phi / 2.0)
    np.fill_diagonal(latent, 1.0)
    eigenvalues, vectors = np.linalg.eigh(latent)
    top = np.argsort(eigenvalues)[::-1][:RANK]
    loadings = vectors[:, top] * np.sqrt(np.clip(eigenvalues[top], 0.0, None))
    # Each bit's latent variance is one: shrink rows whose common part
    # alone would exceed it.
    common = (loadings**2).sum(axis=1)
    loadings /= np.sqrt(np.maximum(common, 1.0) / 0.999)[:, None]
    sizes = [len(rows) for rows in stored]
    return {
        "about": "Gaussian-copula model of the program's ORB bits on 72x96 "
        "SceneGenerator scenes; written by perfbench/fit_orb.py",
        "images": len(stored),
        "rows_per_image": [min(sizes), max(sizes)],
        "bit_probability": [round(float(p), 4) for p in probability],
        "loadings": [[round(float(x), 4) for x in row] for row in loadings],
    }


def _matched(query: np.ndarray, source: np.ndarray) -> np.ndarray:
    """Hamming distances of *query*'s rows that mutually match *source*."""
    import pb_common as pc

    distances = pc.hamming(query, source)
    best_col = distances.argmin(axis=1)
    best_row = distances.argmin(axis=0)
    rows = np.arange(len(query))
    best = distances[rows, best_col]
    keep = (best_row[best_col] == rows) & (best <= pc.HAMMING_CEILING)
    keep &= best <= pc.LOWE_RATIO * np.sort(distances, axis=1)[:, 1]
    keep &= best <= pc.LOWE_RATIO * np.sort(distances, axis=0)[1, :][best_col]
    return best[keep]


def describe(label, stored, novel, recaptures) -> "dict[str, str]":
    """The load figures of one corpus, as printable cells."""
    import pb_common as pc
    from repro.index import FeatureIndex
    from repro.kernels.voting import group_query_keys

    rows = np.concatenate(stored)
    bits = np.unpackbits(rows, axis=1).astype(np.float64)
    unrelated = pc.hamming(np.concatenate(novel)[:400], rows[:4000])
    index = FeatureIndex(kind="orb")
    for number, descriptors in enumerate(stored):
        index.add(pc.feature_set(f"s{number}", descriptors))
    keys = index.hash_keys(rows)
    occupancy = []
    for table in range(keys.shape[1]):
        _, counts = np.unique(keys[:, table], return_counts=True)
        occupancy.append(float((counts**2).sum() / counts.sum()))
    voted = [
        len(index.vote_counts_from_grouped(group_query_keys(index.hash_keys(q))))
        for q in novel
    ]
    matched = [_matched(q, stored[s]) for s, q in recaptures]
    shares = [len(m) / len(q) for m, (_, q) in zip(matched, recaptures)]
    distances = np.concatenate(matched)
    scores = [pc.eq2(q, stored[s]) for s, q in recaptures]
    novel_max = pc.brute_force_max(novel, stored, [len(stored)] * len(novel))
    return {
        "corpus": label,
        "rows/image": f"{np.mean([len(s) for s in stored]):.1f}",
        "bit balance": f"{np.abs(bits.mean(axis=0) - 0.5).mean():.3f}",
        "unrelated Hamming": f"{unrelated.mean():.1f} sd {unrelated.std():.1f}",
        "bucket occupancy": f"{np.mean(occupancy):.1f} ({min(occupancy):.0f}-{max(occupancy):.0f})",
        "voted/query": f"{np.mean(voted):.0f} of {len(stored)}",
        "re-capture matched share": f"{np.median(shares):.2f}",
        "matched Hamming": f"{distances.mean():.1f}",
        "re-capture Eq. 2": f"{np.median(scores):.3f} (min {min(scores):.3f})",
        "novel max Eq. 2": f"{np.median(novel_max):.4f} (max {max(novel_max):.4f})",
    }


def main(argv: "list[str]") -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--images", type=int, default=400)
    parser.add_argument("--check", action="store_true", help="do not write the model")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(HERE.parent / "src"))
    sys.path.insert(0, str(HERE))
    stored, novel, recaptures = _extract(args.images, 60, 60)
    if not args.check:
        MODEL.write_text(json.dumps(fit(stored), separators=(",", ":")) + "\n")
    import pb_common as pc

    synth = pc.DescriptorSynth(seed=1, stream=99)
    model_stored = [synth.novel() for _ in stored]
    model_novel = [synth.novel() for _ in novel]
    model_recaptures = [(s, synth.recapture(model_stored[s])) for s, _ in recaptures]
    table = [
        describe("program ORB", stored, novel, recaptures),
        describe("model", model_stored, model_novel, model_recaptures),
    ]
    for key in table[0]:
        print(f"| {key} | " + " | ".join(row[key] for row in table) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

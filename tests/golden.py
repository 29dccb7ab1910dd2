"""Digests of small training runs, pinned by ``test_golden.py``.

``python tests/golden.py`` prints the table as JSON; ``--write`` also
overwrites ``tests/golden_digests.json``. Regenerate the table only in a
change that alters the numbers on purpose, and list the old and new
digests with it.

Each training config records the SHA-256 of its loss-history CSV and of
``named_arrays()``: every key, dtype, shape and byte, in order. The
``run`` entry is one ``dagrl run`` cell: it records the dataset files
that ``dagrl synth`` writes for it and the cell's output files.
"""

import os

# The bits depend on the BLAS compute kernel: pin it, and one thread,
# before numpy loads OpenBLAS.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OPENBLAS_CORETYPE"] = "Haswell"

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from dagrl import cli  # noqa: E402
from dagrl.synthetic import make_shifted_pair  # noqa: E402
from dagrl.trainer import VARIANTS, TrainConfig, export_loss_history, train  # noqa: E402

TABLE = Path(__file__).with_name("golden_digests.json")

BASE = dict(epochs=2, lr=1e-2, hidden_dim=8, batch_size=8, lambda1=0.1, lambda2=0.1,
            epsilon=1.0, wl_depth=2, seed=0)
# Every variant under its own name, plus ``full`` with both domain terms off.
CONFIGS = {**{name: {"variant": name} for name in VARIANTS},
           "lambda_zero": {"lambda1": 0.0, "lambda2": 0.0}}
RUN_CONFIG = "epochs = 2\nlr = 0.01\nhidden_dim = 8\nbatch_size = 8\nwl_depth = 1\n"


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def arrays_digest(arrays) -> str:
    h = hashlib.sha256()
    for key, value in arrays.items():
        h.update(f"{key}:{value.dtype.str}:{value.shape};".encode())
        h.update(value.tobytes())
    return h.hexdigest()


def training_digests(work: Path) -> dict:
    source, target = make_shifted_pair(seed=0, graphs_per_class=12)
    out = {}
    for name, overrides in CONFIGS.items():
        state = train(TrainConfig(**{**BASE, **overrides}), source, target)
        export_loss_history(work / f"{name}.csv", state.history)
        out[name] = {"history": sha256_file(work / f"{name}.csv"),
                     "arrays": arrays_digest(state.named_arrays())}
    return out


def run_digests(work: Path) -> dict:
    data, out, config = work / "data", work / "out", work / "run.cfg"
    config.write_text(RUN_CONFIG)
    with contextlib.redirect_stdout(io.StringIO()):
        codes = [cli.main(["synth", "--out", str(data), "--seed", "3",
                           "--graphs-per-block", "16"]),
                 cli.main(["run", "--data-root", str(data), "--dataset", "SynthBench",
                           "--pairs", "0,1", "--seeds", "0", "--variant", "full",
                           "--config", str(config), "--out", str(out)])]
    if codes != [0, 0]:
        raise SystemExit(f"dagrl synth/run exited with {codes}")
    files = ("loss_history_0_1_0.csv", "checkpoint_0_1_0.txt", "results.csv", "summary.csv")
    table = {path.name: sha256_file(path) for path in (data / "SynthBench").iterdir()}
    table.update((name, sha256_file(out / name)) for name in files)
    return table


def digests() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        table = training_digests(Path(tmp))
        table["run"] = run_digests(Path(tmp))
    return table


if __name__ == "__main__":
    text = json.dumps(digests(), indent=2, sort_keys=True) + "\n"
    if sys.argv[1:] == ["--write"]:
        TABLE.write_text(text)
    print(text, end="")

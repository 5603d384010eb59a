"""Config-driven workbench flow: tabulated targets, simulate, verify, artifacts.

Writes a run configuration plus CSV target tables into a temporary directory,
removed at the end, then drives the command-line interface programmatically:
`simulate` writes binary sample records and a moment report, `verify` checks
the single-record ergodic identities, and the sample files round-trip
bit-exactly.
"""

import json
import os
import tempfile

import numpy as np

from srm3.cli import main
from srm3.io import read_samples

with tempfile.TemporaryDirectory(prefix="srm3-demo-") as workdir:
    print("working in", workdir)

    # --- tabulated targets: band-limited spectrum + two bispectral entries --
    N = 16
    spectrum_rows = []
    values = np.zeros(N)
    values[[4, 5, 8, 9]] = [1.0, 1.2, 0.8, 0.9]
    for k in range(N):
        spectrum_rows.append(f"{k},{values[k]},0.0")
    with open(os.path.join(workdir, "spectrum.csv"), "w") as fh:
        fh.write("\n".join(spectrum_rows) + "\n")
    with open(os.path.join(workdir, "bispectrum.csv"), "w") as fh:
        fh.write("4,4,1.2,0.0\n5,4,0.7,0.5\n")  # conjugate pair filled in

    config = {
        "schema_version": 1,
        "grid": {"m": 1, "N": N, "delta_omega": 0.2, "m_f": 64},
        "target": {
            "kind": "tabulated",
            "spectrum_csv": "spectrum.csv",
            "bispectrum_csv": "bispectrum.csv",
        },
        "method": "third-uv",
        "seed": 11,
        "realizations": 4,
        "output": {"directory": os.path.join(workdir, "out")},
    }
    config_path = os.path.join(workdir, "run.json")
    with open(config_path, "w") as fh:
        json.dump(config, fh, indent=2)

    print("\n$ srm3 simulate --config run.json --plot-data")
    code = main(["simulate", "--config", config_path, "--plot-data"])
    print("exit code:", code)
    print("artifacts:", sorted(os.listdir(config["output"]["directory"])))

    record = read_samples(os.path.join(config["output"]["directory"], "sample_0000.srm3"))
    print(f"\nfirst record: {record.m} variate(s), {record.n_samples} samples,"
          f" dt={record.delta_t:.4f} s, seed={record.seed},"
          f" method={record.method.value}")

    print("\n$ srm3 verify --config run.json --seeds 3")
    code = main(["verify", "--config", config_path, "--seeds", "3"])
    print("exit code:", code)

"""Record the optimum of every default-seed instance in reference.json.

    python3 bench/record_reference.py

Only values are recorded (the horizon value per step, the DSAHT error
probability), never policies, so that argmax ties broken differently by
floating-point noise stay legal. Run it only at a commit whose solvers are
trusted: every later run compares against these numbers to 1e-9.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def main() -> int:
    out = {"seed": workloads.DEFAULT_SEED}
    for wl in workloads.WORKLOADS.values():
        calls = wl.calls(wl.make_inputs(workloads.DEFAULT_SEED))
        if not calls or calls[0].value is None:
            continue
        values = {}
        for call in calls:
            res = call.run()
            errs = call.check(res)
            if errs:
                raise SystemExit(f"{wl.name}:{call.label} fails its check: {errs}")
            values[call.label] = call.value(res)
        out[wl.name] = values
    workloads.REFERENCE_PATH.write_text(json.dumps(out, indent=2) + "\n")
    print(json.dumps(out, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())

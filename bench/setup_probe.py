"""Set-up cost of relayswipt in a fresh process.

Run as a script from the root of a checkout, it imports ``relayswipt`` and
``relayswipt.cli`` from ``src/``, makes one small fixed call into each layer
(which fills lazy caches such as the quadrature node tables) and prints the
seconds that took.  ``warm_up`` is also what the benchmark runs in its own
process before it starts timing.
"""

import time

_T0 = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"


def warm_up() -> None:
    """One small fixed call per layer of relayswipt."""
    import numpy as np

    import relayswipt as rs
    import relayswipt.cli
    from relayswipt import model, schemes

    rs.exp_e1_scaled(1.5)  # specfun
    cfg = rs.SystemConfig(2, 10.0, 1.0)  # model
    snr, energy, coins = model.frames_from_uniforms(cfg, np.full((4, 8), 0.5))
    schemes.select_indices(rs.TimeSharing(mu=0.5), snr, energy, coins)  # schemes
    rs.c_tc(cfg, rs.energy_from_delta(cfg, 0.5))  # closedform
    try:  # frontier: tol=0 walks every rung of the ladder, building each node table
        rs.pareto_capacity_point(cfg, 1.0, tol=0.0)
    except rs.ToleranceNotMetError:
        pass
    rs.run(cfg, rs.TimeSharing(mu=0.5), rs.MonteCarloConfig(n_frames=10_000))  # simulate
    with contextlib.redirect_stdout(io.StringIO()):  # cli
        relayswipt.cli.main(["outage-vs-snr", "--ratio-db=0:10:2"])


def main() -> int:
    if not (SRC / "relayswipt" / "__init__.py").is_file():
        print(f"no relayswipt sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import relayswipt  # noqa: F401
    import relayswipt.cli  # noqa: F401

    warm_up()
    print(repr(time.perf_counter() - _T0))
    return 0


if __name__ == "__main__":
    sys.exit(main())

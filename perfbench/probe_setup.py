"""Time the set-up every CLI call pays, in this fresh interpreter.

    python3 perfbench/probe_setup.py <src dir> <config>

Times importing masscons, parsing the config and building its midpoint
quadrature, then prints the seconds on one line.
"""

import sys
import time


def main() -> None:
    src, config = sys.argv[1], sys.argv[2]
    sys.path.insert(0, src)
    started = time.perf_counter()
    import masscons

    cfg = masscons.parse_config(config)
    masscons.midpoint_rule(cfg.box(), cfg.quad)
    print(repr(time.perf_counter() - started))


if __name__ == "__main__":
    main()

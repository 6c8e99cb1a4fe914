"""Record the reference digests in ``expected.json``.

    python3 perfbench/record.py

Runs every workload once at the default seed and stores the digest of each
command's output, with ``elapsed_ms`` masked, after the independent checks
pass.  It also stores the digest of every factoring text the generator can
emit, and says whether each text equals the program's own
``emit_csp(gen_factoring(spec), factoring_space(spec))``.  Re-record only
when a change is meant to alter outputs or inputs, and say so.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run
from gen import PRIMES, SEMIPRIMES, WORKLOADS, factoring_text, make_items
from verify import check_output, digest, text_digest

DEFAULT_SEED = 1


def main() -> int:
    os.environ["CSPSTRUCT_WORKERS"] = "1"
    sys.path.insert(0, str(run.SRC))
    cli = run.import_program()
    from cspstruct.instances import FactoringSpec, emit_csp, factoring_space, gen_factoring

    texts = {}
    for z in sorted({*PRIMES, *(z for pool in SEMIPRIMES.values() for z in pool)}):
        text, _ = factoring_text(z)
        spec = FactoringSpec(z, 2, True)
        same = text == emit_csp(gen_factoring(spec), factoring_space(spec))
        print(f"factoring z={z}: {'matches' if same else 'DIFFERS FROM'} the program's generator")
        texts[str(z)] = text_digest(text)

    outputs = {}
    clearers = run.cache_clearers()
    run.OUT.mkdir(exist_ok=True)
    workdir = run.OUT / f"record-{os.getpid()}"
    workdir.mkdir()
    try:
        for workload in WORKLOADS:
            outputs[workload] = {}
            for item in make_items(workload, DEFAULT_SEED):
                path = workdir / item.filename
                path.write_text(item.text)
                _, code, out, err = run.run_item(cli, item.argv(str(path)), clearers)
                problem, _ = check_output(item, code, out)
                if problem is not None:
                    print(f"{item.name}: {problem}\n{err}", file=sys.stderr)
                    return 1
                outputs[workload][item.name] = digest(out)
            print(f"{workload}: {len(outputs[workload])} outputs recorded")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    expected = {"default_seed": DEFAULT_SEED, "factoring_texts": texts, "outputs": outputs}
    run.EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

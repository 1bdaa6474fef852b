"""Run one covergeo command with the layer tracer installed.

Usage: traced_cli.py <result.json> <operation id> <covergeo argv...>

Prints the command's own output, exits with its exit code, and writes the
import time, the spans and the counts to <result.json> for run.py to merge.
The import of covergeo.cli is timed before anything else is imported.
"""

import sys
import time

start = time.perf_counter()
import covergeo.cli  # noqa: E402
import_s = time.perf_counter() - start

import json  # noqa: E402

from tracing import Tracer  # noqa: E402


def main() -> int:
    out_path, op_id, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    cache = covergeo.fields.extension_field
    tracer = Tracer()
    tracer.install()
    before = cache.cache_info()
    with tracer.op(op_id):
        code = covergeo.cli.main(argv)
    after = cache.cache_info()
    result = {
        "import_s": import_s,
        "spans": tracer.spans,
        "ext_sites": tracer.ext_sites,
        "embeddings": len(tracer.embeddings),
        "cache_hits": after.hits - before.hits,
        "cache_misses": after.misses - before.misses,
    }
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())

"""Record the reference verdicts the benchmark compares every run against.

    python3 bench/record.py

For every input set of the benchmark it stores each criterion line
(bench/reference/criteria.json) and, for the documents workload, a digest of
the generated inputs plus each command's exit code and standard output
(bench/reference/documents.json).
The references were recorded once from a commit whose verdicts are known to
be right; the benchmark only reads them.  Re-record only when the intended
output of dualkit changes, never to make a failing run pass.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil

import run


def record_criteria(input_set):
    from dualkit import corpus
    lines = {}
    for number, criterion in enumerate(corpus.CRITERIA, start=1):
        result = criterion(seed=input_set)
        if not result.passed:
            raise SystemExit("input set %d: %s" % (input_set, result.line()))
        lines[str(number)] = result.line()
    return lines


def record_documents(input_set):
    import docgen
    from dualkit import cli
    directory = os.path.join(run.WORK, "record-s%d-%d" % (input_set, os.getpid()))
    os.makedirs(directory)
    try:
        commands = docgen.generate(input_set, directory)
        outputs = []
        for label, argv in commands:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            if code not in (0, 1) or err.getvalue():
                raise SystemExit("input set %d: %r exited %r: %s"
                                 % (input_set, label, code, err.getvalue()))
            outputs.append(run.verdict_digest(code, out.getvalue()))
        return {"inputs": docgen.fingerprint(directory, commands), "outputs": outputs}
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def write(name, table):
    """One reference file, an entry per line, input sets in order."""
    with open(os.path.join(run.REFERENCE, name), "w", encoding="utf-8") as handle:
        for number, key in enumerate(sorted(table)):
            handle.write("{" if number == 0 else ",\n")
            handle.write("%s: %s" % (json.dumps(str(key)), json.dumps(table[key])))
        handle.write("}\n")


def main():
    run.import_dualkit()
    os.makedirs(run.REFERENCE, exist_ok=True)
    os.makedirs(run.WORK, exist_ok=True)
    criteria, documents = {}, {}
    for input_set in range(run.INPUT_SETS):
        documents[input_set] = record_documents(input_set)
        criteria[input_set] = record_criteria(input_set)
        print("recorded input set %d" % input_set, flush=True)
    write("documents.json", documents)
    write("criteria.json", criteria)


if __name__ == "__main__":
    main()

"""Records digests.json: the SHA-256 of every prime's csv lines that a
benchmark workload can produce, for every seed.

    python3 bench/record_digests.py

Run it only at a commit whose reports are trusted.  The benchmark then
requires each later report to match these digests byte for byte.
"""

from __future__ import annotations

import json
import multiprocessing

import workloads as w


def _lines(job):
    key, p = job
    targets = [w.congruences.Target(t) for t in (w.ALL if key == "all" else w.LEMMAS)]
    rows = w.congruences.verify_prime(p, targets)
    if not all(r.passed for r in rows):
        raise RuntimeError(f"p={p}: a check fails; refusing to record its digest")
    text = w.cli.render_rows(rows, "csv", False)
    return key, p, w.prime_digest(text.splitlines()[1:])


def main() -> None:
    jobs = [("all", p) for p in w.sieve(5, w.SWEEP_HI + 1) + w.sieve(*w.LARGE_WINDOW)]
    jobs += [("lemmas", p) for p in w.sieve(*w.LEMMA_WINDOW)]
    out: dict[str, dict[str, str]] = {"all": {}, "lemmas": {}}
    with multiprocessing.get_context("spawn").Pool(2) as pool:
        for key, p, digest in pool.imap_unordered(_lines, jobs[::-1]):
            out[key][str(p)] = digest
    for key in out:
        out[key] = dict(sorted(out[key].items(), key=lambda kv: int(kv[0])))
    w.DIGESTS.write_text(json.dumps(out, indent=0) + "\n")
    print(f"wrote {sum(map(len, out.values()))} digests to {w.DIGESTS}")


if __name__ == "__main__":
    main()

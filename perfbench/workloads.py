"""Job lists of the benchmark workloads and of the CLI-defaults smoke pass.

A job is the argv of one ``dyadlab`` CLI call. ``--seed`` and ``--out`` are
appended by the worker; nothing else about the inputs reaches the program.
Trial and sample counts keep each job to about 0.03-0.25 s on a 2-vCPU x86
machine (mc-demo excepted, see below), so that the reference timed right
before and after a job (reference.py) sees the host in the state the job
saw; a run repeats the pass many times.
"""

WORKLOADS = {
    # The most common user job: small arrays (n <= 256), so interpreter
    # overhead dominates. Time goes to haar, shifts, paraproducts.bk and the
    # one-parameter decomposition; none to biparam or montecarlo.
    "decomp1": [
        ["verify-decomp", "--trials", "2"],
        ["verify-decomp", "--d", "2", "--N", "4", "--imax", "2", "--jmax", "2",
         "--trials", "2"],
    ],
    # Two-parameter identity (the acceptance criterion 3 config): time goes to
    # biparam.pair_apply, _BiView/_Accum and iterated_commutator. The PP/PP1
    # norm studies reach the P-type tensor atoms the cancellative-only verify
    # never touches.
    "decomp2": [
        ["verify-decomp", "--biparam", "--d", "1", "--N", "4", "--imax", "2",
         "--jmax", "2", "--trials", "1"],
        ["norm-study", "--kind", "PP", "--N", "4"],
        ["norm-study", "--kind", "PP1", "--N", "4"],
        ["norm-study", "--kind", "Bkl", "--N", "4", "--trials", "2"],
    ],
    # Shifted grids with omega, grid_index caching, dense matrix assembly and
    # average_operator; decomposition, biparam and P never run. mc-demo's
    # familywise z-test needs about 1000 samples: with fewer, the normal
    # approximation fails it on some seeds (seed 1 at 100 samples, 8 at 300,
    # 26 at 500; none of seeds 0-59 at 1000), so this job takes about 2 s and
    # leans on the reference samples taken while it runs.
    "grids": [
        ["mc-demo", "--N", "6", "--samples", "1000"],
        ["bound-study", "--trials", "4"],
    ],
    # n = 4096: numpy kernels rather than the interpreter, the dense
    # strict_matrix (128 MiB per grid) and P/P*; sets the peak memory.
    "scale": [
        ["verify-decomp", "--d", "1", "--N", "12", "--imax", "1", "--jmax", "1",
         "--trials", "3"],
        ["norm-study", "--kind", "P", "--N", "12", "--trials", "10"],
        ["jn-check", "--N", "12"],
        ["verify-decomp", "--d", "2", "--N", "6", "--imax", "1", "--jmax", "1",
         "--trials", "2"],
    ],
}

# Every subcommand once at the defaults the README documents.
SMOKE = [["selftest"], ["verify-decomp"], ["norm-study"], ["jn-check"],
         ["mc-demo"], ["bound-study"]]

"""Mutation runner: how many deliberate faults do the tests catch?

    python tools/mutants.py            # every mutant
    python tools/mutants.py cov_d      # mutants whose name contains "cov_d"

Each mutant is one text edit of one source file plus the test files that
should catch it.  For each, the runner copies the repository (without
``.git``) to a temporary directory, applies the edit there, runs the named
tests with pytest and counts the mutant as caught when they fail.  It
prints one line per mutant and caught/total per mutated module, and exits
1 when a mutant survives.

The list leaves out equivalent mutants, edits that change values only by
rounding (for example, transposing the direction axes of the sampled second
jets, which are symmetric up to rounding): no test can catch them.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# (name, file, old text, new text, test files)
MUTANTS = [
    ("torus4 second table: (0, 1) entry swapped with (0, 2)", "src/laguerre/patches.py",
     "(0, 1): emb(-a * su, nt, zeros),\n        (0, 2): emb(-a * su, npp, zeros),",
     "(0, 1): emb(-a * su, npp, zeros),\n        (0, 2): emb(-a * su, nt, zeros),",
     ["tests/test_hypersurface.py"]),
    ("catenoid third table: key (0, 1, 1) -> (0, 0, 1)", "src/laguerre/patches.py",
     "(0, 1, 1): _vec(-cv, -sv, zeros)", "(0, 0, 1): _vec(-cv, -sv, zeros)",
     ["tests/test_hypersurface.py"]),
    ("graph third table: 6 cubic -> 3 cubic", "src/laguerre/patches.py",
     "along(i, zeros, 6 * cubic[i] * ones)", "along(i, zeros, 3 * cubic[i] * ones)",
     ["tests/test_hypersurface.py"]),
    ("symmetric jet: unsorted key lookup", "src/laguerre/patches.py",
     "slot.get(tuple(sorted(idx)), 0)", "slot.get(tuple(idx), 0)",
     ["tests/test_patches.py"]),
    ("order-4 stencil: coefficient 8 -> 7", "src/laguerre/fd.py",
     "d += 8.0 * s(1)", "d += 7.0 * s(1)",
     ["tests/test_fd.py"]),
    ("padded stencil: periodic axes padded by edge values", "src/laguerre/fd.py",
     'np.pad(f, width, mode="wrap")', 'np.pad(f, width, mode="edge")',
     ["tests/test_fd.py"]),
    ("window margin: one more on each cropped (bounded) axis", "src/laguerre/fd.py",
     "(c - s) // 2 for c, s in zip(grid.counts, field.shape[field.ndim - grid.ndim:]))",
     "(c - s) // 2 + (s < c) for c, s in zip(grid.counts, field.shape[field.ndim - grid.ndim:]))",
     ["tests/test_fd.py", "tests/test_cli.py"]),
    ("crop: to the largest window instead of the common one", "src/laguerre/fd.py",
     "window = [min(f.shape[f.ndim - ngrid + i] for f in fields) for i in range(ngrid)]",
     "window = [max(f.shape[f.ndim - ngrid + i] for f in fields) for i in range(ngrid)]",
     ["tests/test_contractions.py"]),
    ("Jacobi: one sweep for m = 3", "src/laguerre/fd.py",
     "JACOBI_SWEEPS = 8", "JACOBI_SWEEPS = 1",
     ["tests/test_fd.py"]),
    ("Jacobi: sign of the rotation tangent flipped", "src/laguerre/fd.py",
     "t = np.where(big, np.copysign(1.0, theta)", "t = -np.where(big, np.copysign(1.0, theta)",
     ["tests/test_fd.py"]),
    ("Jacobi: pair (1, 2) dropped from the sweep", "src/laguerre/fd.py",
     "for p, q in ((0, 1), (0, 2), (1, 2)) if q < m]", "for p, q in ((0, 1), (0, 2)) if q < m]",
     ["tests/test_fd.py"]),
    ("principal curvatures: ascending instead of descending", "src/laguerre/patches.py",
     "fd.cholesky_reduce(patch.II, patch.Linv))[::-1]",
     "fd.cholesky_reduce(patch.II, patch.Linv))",
     ["tests/test_patches.py"]),
    ("gram: two different stacks mirrored as if symmetric", "src/laguerre/fd.py",
     "symmetric = u is v", "symmetric = True",
     ["tests/test_contractions.py"]),
    ("inverse Cholesky factor: off-diagonal sign flipped", "src/laguerre/fd.py",
     "Linv[i, j] = -dot / L[i, i]", "Linv[i, j] = dot / L[i, i]",
     ["tests/test_contractions.py"]),
    ("Cholesky reduction: reads column b of Linv (its upper triangle)", "src/laguerre/fd.py",
     "contract_last(LQ[a][:b + 1], Linv[b, :b + 1])",
     "contract_last(LQ[a][:b + 1], Linv[:b + 1, b])",
     ["tests/test_contractions.py"]),
    ("metric pairing: inner dots transposed", "src/laguerre/fd.py",
     "gram(P, gram(Q, ginv, one), one)", "gram(P, gram(ginv, Q, one), one)",
     ["tests/test_contractions.py"]),
    ("max-abs: whole-array reduction drops -min f", "src/laguerre/fd.py",
     "abs(float(max(field.max(), -field.min())))", "abs(float(field.max()))",
     ["tests/test_fd.py"]),
    ("grid pairing: weighted by (+, ..., +) instead of the signature", "src/laguerre/lorentz.py",
     'np.einsum("i...,i...,i->...", X, Y, sig)', 'np.einsum("i...,i...->...", X, Y)',
     ["tests/test_lorentz.py"]),
    ("scalar pairing: sign of the last term flipped", "src/laguerre/lorentz.py",
     "return total - x[-1] * y[-1]", "return total + x[-1] * y[-1]",
     ["tests/test_lorentz.py"]),
    ("cov_d: last slot correction dropped", "src/laguerre/fd.py",
     "for i, a in enumerate(slots):", "for i, a in enumerate(slots[:-1]):",
     ["tests/test_contractions.py"]),
    ("sampled window: cut by r instead of 2r", "src/laguerre/patches.py",
     "inset = 2 * fd.RADIUS.get(fd_order, 0)", "inset = fd.RADIUS.get(fd_order, 0)",
     ["tests/test_patches.py"]),
    ("locator: window offset dropped", "src/laguerre/patches.py",
     "return tuple(int(i) + (c - w) // 2", "return tuple(int(i)",
     ["tests/test_patches.py"]),
    ("analyze: interior checked on the spec's grid instead of the patch's",
     "src/laguerre/hypersurface.py",
     "fd.require_interior(patch.axes, MAX_CASCADE_LEVELS, patch.spec_axes)",
     "fd.require_interior(patch.spec_axes, MAX_CASCADE_LEVELS, patch.spec_axes)",
     ["tests/test_cli.py"]),
    ("interior message: the jets' cut counted on both sides", "src/laguerre/fd.py",
     "the jets' cut of {(given - count) // 2} per side", "the jets' cut of {given - count} per side",
     ["tests/test_cli.py"]),
    ("S spectrum: radii + r", "src/laguerre/hypersurface.py",
     "(radius - shape.r) / shape.rho", "(radius + shape.r) / shape.rho",
     ["tests/test_hypersurface.py"]),
    ("S spectrum: times rho", "src/laguerre/hypersurface.py",
     "(radius - shape.r) / shape.rho", "(radius - shape.r) * shape.rho",
     ["tests/test_hypersurface.py"]),
    ("S spectrum: ascending, the descending flip dropped", "src/laguerre/hypersurface.py",
     "np.stack(fd.ascending(eigs)[::-1])", "np.stack(fd.ascending(eigs))",
     ["tests/test_hypersurface.py"]),
    ("sorting network: adjacent pairs only", "src/laguerre/fd.py",
     "itertools.combinations(range(len(columns)), 2)",
     "zip(range(len(columns) - 1), range(1, len(columns)))",
     ["tests/test_hypersurface.py", "tests/test_fd.py"]),
    ("shape data: mean radius over 2 components", "src/laguerre/patches.py",
     "r = radii.mean(axis=0)", "r = radii.sum(axis=0) / 2",
     ["tests/test_hypersurface.py"]),
    ("volume: radii summed instead of multiplied", "src/laguerre/hypersurface.py",
     "np.prod(shape.radii, axis=0)", "np.sum(shape.radii, axis=0)",
     ["tests/test_hypersurface.py"]),
    ("diameter: max + min", "src/laguerre/patches.py",
     "c.max() - c.min()", "c.max() + c.min()",
     ["tests/test_hypersurface.py"]),
    ("raw B asymmetry: B_raw + B_raw^T", "src/laguerre/hypersurface.py",
     "self.B_raw - np.swapaxes(self.B_raw, 0, 1)", "self.B_raw + np.swapaxes(self.B_raw, 0, 1)",
     ["tests/test_hypersurface.py"]),
    ("raw B asymmetry: no transpose", "src/laguerre/hypersurface.py",
     "self.B_raw - np.swapaxes(self.B_raw, 0, 1)", "self.B_raw - self.B_raw",
     ["tests/test_hypersurface.py"]),
    ("cusp message: image radius a - r b", "src/laguerre/hypersurface.py",
     "h1[0][-1] + patch.shape.radii", "h1[0][-1] - patch.shape.radii",
     ["tests/test_hypersurface.py"]),
    ("conjugate null vector N: denominator 2 (n-1) instead of 2 (n-1)^2",
     "src/laguerre/hypersurface.py",
     "(2.0 * nm1 * nm1)", "(2.0 * nm1)",
     ["tests/test_hypersurface.py"]),
    ("criticality: sum form's Laplacian without sqrt(det g)", "src/laguerre/minimality.py",
     "laplace_beltrami(fld.divB, fld.ginv, fld.sqrt_det,",
     "laplace_beltrami(fld.divB, fld.ginv, np.ones_like(fld.sqrt_det),",
     ["tests/test_minimality.py"]),
    ("criticality: div form divides <L, B> by n - 1", "src/laguerre/minimality.py",
     "divC - LB / (fld.patch.n - 2)", "divC - LB / (fld.patch.n - 1)",
     ["tests/test_minimality.py"]),
    ("reported discrepancy: (n - 2) -> (n + 2)", "src/laguerre/minimality.py",
     "crop(sum_form, (n - 2) * div_form)", "crop(sum_form, (n + 2) * div_form)",
     ["tests/test_minimality.py"]),
    ("reported discrepancy: (n - 2) -> (n - 1)", "src/laguerre/minimality.py",
     "crop(sum_form, (n - 2) * div_form)", "crop(sum_form, (n - 1) * div_form)",
     ["tests/test_minimality.py"]),
    ("eta Laplacian: sign of the C term of tangent_vs_C flipped", "src/laguerre/minimality.py",
     "max_abs(tangent_frame - (n - 3) * C_frame)", "max_abs(tangent_frame + (n - 3) * C_frame)",
     ["tests/test_minimality.py"]),
    ("eta Laplacian: sign of the tangent term of tangent_vs_C flipped",
     "src/laguerre/minimality.py",
     "max_abs(tangent_frame - (n - 3) * C_frame)", "max_abs(-tangent_frame - (n - 3) * C_frame)",
     ["tests/test_minimality.py"]),
    ("eta Laplacian: tangent_vs_C against (n - 4) C", "src/laguerre/minimality.py",
     "max_abs(tangent_frame - (n - 3) * C_frame)", "max_abs(tangent_frame - (n - 4) * C_frame)",
     ["tests/test_minimality.py"]),
    ("default threshold: rho^4 instead of rho^3", "src/laguerre/minimality.py",
     "np.median(fld.patch.shape.rho ** 3)", "np.median(fld.patch.shape.rho ** 4)",
     ["tests/test_minimality.py"]),
    ("bridge identity: sign of div C flipped", "src/laguerre/minimality.py",
     "crop(rho3, -divC + LB)", "crop(rho3, divC + LB)",
     ["tests/test_minimality.py"]),
    ("eta Laplacian: wp component sign flipped", "src/laguerre/minimality.py",
     "wp_comp = -inner(*crop(lap_eta, lift.eta))", "wp_comp = inner(*crop(lap_eta, lift.eta))",
     ["tests/test_minimality.py"]),
    ("group inverse: one signature factor dropped", "src/laguerre/group.py",
     "sig[:, None] * self.matrix.T * sig", "self.matrix.T * sig",
     ["tests/test_group.py"]),
    ("composition: operands swapped", "src/laguerre/group.py",
     "LaguerreTransform(self.matrix @ other.matrix)",
     "LaguerreTransform(other.matrix @ self.matrix)",
     ["tests/test_group.py"]),
    ("parallel flow: radius shift -t -> +t", "src/laguerre/group.py",
     "    h = 0.5 * t * t\n", "    t = -t\n    h = 0.5 * t * t\n",
     ["tests/test_group.py"]),
    ("orthogonality defect: the identity not subtracted", "src/laguerre/group.py",
     "gram.reshape(-1)[:: A.shape[0] + 1] -= 1.0", "gram.reshape(-1)[:: A.shape[0] + 1] -= 0.0",
     ["tests/test_group.py"]),
    ("random element: its single validation dropped", "src/laguerre/group.py",
     "    return LaguerreTransform(M)\n",
     '    T = object.__new__(LaguerreTransform)\n    object.__setattr__(T, "matrix", M)\n'
     "    return T\n",
     ["tests/test_group.py"]),
    ("reconstruct: boost and parallel factors swapped", "src/laguerre/group.py",
     ".dot(_hyperbolic_matrix(self.t, self.n))\n            .dot(_parabolic_matrix(self.s, self.n))",
     ".dot(_parabolic_matrix(self.s, self.n))\n            .dot(_hyperbolic_matrix(self.t, self.n))",
     ["tests/test_group.py"]),
    ("decompose: boosted column read with cancellation", "src/laguerre/group.py",
     "peeled[:, -1] /= np.cosh(t)",
     "peeled[:, -1] = np.cosh(t) * peeled[:, -1]"
     " - np.sinh(t) * (W[:-1, -1] + s * (W[:-1, 0] + W[:-1, 1]))",
     ["tests/test_group.py"]),
    ("decompose: the peel's last column not rescaled", "src/laguerre/group.py",
     "    peeled[:, -1] /= np.cosh(t)\n", "",
     ["tests/test_group.py"]),
    ("decompose: Householder mirror's last entry formed by cancellation", "src/laguerre/group.py",
     "    if w[-1] > 0.0:\n", "    if False:\n",
     ["tests/test_group.py"]),
    ("membership: wp-row check dropped", "src/laguerre/lorentz.py",
     "return wp_defect <= tol * max(1.0, big)", "return True",
     ["tests/test_lorentz.py"]),
    ("membership: Gram scale max|T| instead of max|T|^2", "src/laguerre/lorentz.py",
     "scale = max(1.0, big ** 2)", "scale = max(1.0, big)",
     ["tests/test_lorentz.py"]),
    ("membership: non-finite entries not rejected", "src/laguerre/lorentz.py",
     "if not math.isfinite(big):\n        return False", "if False:\n        return False",
     ["tests/test_lorentz.py"]),
    ("cached unit wp: wp / 2 instead of wp / |wp|", "src/laguerre/lorentz.py",
     "wp(n) / np.linalg.norm(wp(n))", "wp(n) / 2.0",
     ["tests/test_spheres.py"]),
    ("element vectors: finiteness check always passes", "src/laguerre/spheres.py",
     "if not all(map(math.isfinite, arr.tolist())):", "if False:",
     ["tests/test_spheres.py"]),
    ("representative: pivot taken as the first entry", "src/laguerre/spheres.py",
     "pivot = entries[sizes.index(max(sizes))]", "pivot = entries[0]",
     ["tests/test_spheres.py"]),
    ("sphere point: sign of q flipped", "src/laguerre/spheres.py",
     "q = lorentz.inner_1(tail, tail)", "q = -lorentz.inner_1(tail, tail)",
     ["tests/test_spheres.py"]),
    ("plane point: (lam, lam) instead of (lam, -lam)", "src/laguerre/spheres.py",
     "return _coord(lam, -lam,", "return _coord(lam, lam,",
     ["tests/test_spheres.py"]),
    ("read-off guard dropped", "src/laguerre/spheres.py",
     "if bad.any():", "if False:",
     ["tests/test_spaceforms.py", "tests/test_group.py"]),
    ("sigma: plane tail radius entry 1.0 -> 2.0", "src/laguerre/spaceforms.py",
     "coord_tail(c.xi, 1.0, c.space)", "coord_tail(c.xi, 2.0, c.space)",
     ["tests/test_spaceforms.py"]),
    ("hyperboloid: radius entry in the Euclidean slot", "src/laguerre/spheres.py",
     "coord_tail(s.center, -s.radius, s.space)", 'coord_tail(s.center, -s.radius, "r3")',
     ["tests/test_spaceforms.py"]),
    ("normal check: r31 <xi, xi> = +1 instead of -1", "src/laguerre/spheres.py",
     "abs(lorentz.inner_1(xi, xi) + 1.0)", "abs(lorentz.inner_1(xi, xi) - 1.0)",
     ["tests/test_spheres.py", "tests/test_spaceforms.py"]),
    ("normal check: r30 <xi, nu> = 1 dropped", "src/laguerre/spheres.py",
     "if abs(lorentz.inner_1(xi, lorentz.nu(xi.shape[0] - 1)) - 1.0) > SPACEFORM_TOL:",
     "if False:",
     ["tests/test_spheres.py", "tests/test_spaceforms.py"]),
    ("contact element: r30 <x, nu> = 0 dropped", "src/laguerre/spheres.py",
     'if self.space == "r30" and abs(', "if False and abs(",
     ["tests/test_spheres.py", "tests/test_spaceforms.py"]),
    ("curvature pairs: d_a Gamma_a - d_b Gamma_b instead of the swapped rows",
     "src/laguerre/fd.py",
     "(_derivative(Gamma[:, b], a, grid) - _derivative(Gamma[:, a], b, grid))",
     "(_derivative(Gamma[:, a], a, grid) - _derivative(Gamma[:, b], b, grid))",
     ["tests/test_contractions.py"]),
    ("curvature pairs: the two Gamma Gamma terms in the other order", "src/laguerre/fd.py",
     'np.einsum("de...,ec...->dc...", Ga, Gb)) - np.einsum("de...,ec...->dc...", Gb, Ga)',
     'np.einsum("de...,ec...->dc...", Gb, Ga)) - np.einsum("de...,ec...->dc...", Ga, Gb)',
     ["tests/test_contractions.py"]),
    ("Ricci: row b filled with +R_ab.. instead of -R_ab..", "src/laguerre/fd.py",
     "ric[b] -= contract_last(R, ginv[a])", "ric[b] += contract_last(R, ginv[a])",
     ["tests/test_hypersurface.py"]),
    ("Gauss residual: block (b, a) with curvature +R_ab..", "src/laguerre/hypersurface.py",
     "-R - (((T3 + T4) - T1) - T2)", "R - (((T3 + T4) - T1) - T2)",
     ["tests/test_hypersurface.py"]),
    ("mapped II: +<dx, dxi> instead of -<dx, dxi>", "src/laguerre/patches.py",
     "return -0.5 * (W + np.swapaxes(W, 0, 1))", "return 0.5 * (W + np.swapaxes(W, 0, 1))",
     ["tests/test_hypersurface.py"]),
    ("mapped II: not symmetrized", "src/laguerre/patches.py",
     "return -0.5 * (W + np.swapaxes(W, 0, 1))", "return -0.5 * (W + W)",
     ["tests/test_hypersurface.py"]),
    ("builtin params: non-finite values accepted", "src/laguerre/patches.py",
     "        if not finite:\n            raise UsageError(f\"builtin param", "        if False:\n            raise UsageError(f\"builtin param",
     ["tests/test_cli.py"]),
    ("screen: a NaN contact defect passes", "src/laguerre/patches.py",
     "if not worst <= contact_tol * scale:", "if worst > contact_tol * scale:",
     ["tests/test_patches.py"]),
    ("compare: one patch reused when the specs differ", "src/laguerre/cli.py",
     "p2 = p1 if spec2 == spec else", "p2 = p1 if True else",
     ["tests/test_cli.py"]),
    ("analyze --tol default 1e-3 -> 1e-4", "src/laguerre/cli.py",
     '("analyze", cmd_surface_analyze, ("csv",), 1e-3)',
     '("analyze", cmd_surface_analyze, ("csv",), 1e-4)',
     ["tests/test_cli.py"]),
    # Faults of the component-leading layout: a located failure reading a
    # component index as a grid index, a result left in LAPACK's trailing
    # layout, slots or rows of the mapped jets confused, and a reference
    # cycle that keeps a transformed patch's source alive.
    ("locator keeps the component index", "src/laguerre/patches.py",
     "flat = (np.abs(vals) <= k_zero_tol).any(axis=0)", "flat = np.abs(vals) <= k_zero_tol",
     ["tests/test_patches.py"]),
    ("contact screen: locator keeps the component index", "src/laguerre/patches.py",
     "np.abs(fd.contract_last(patch.dx, patch.xi, patch.form)).max(axis=0)",
     "np.abs(fd.contract_last(patch.dx, patch.xi, patch.form))",
     ["tests/test_patches.py"]),
    ("LAPACK branch: result left in the trailing layout", "src/laguerre/fd.py",
     "return np.moveaxis(out, tuple(range(-ncomp, 0)), tuple(range(ncomp)))", "return out",
     ["tests/test_fd.py", "tests/test_patches.py"]),
    ("gradient: every direction written into slot 0", "src/laguerre/fd.py",
     "_derivative(f, axis, grid, out=out[axis])", "_derivative(f, axis, grid, out=out[0])",
     ["tests/test_fd.py"]),
    ("contraction: form weight dropped", "src/laguerre/fd.py",
     "(w[i] if form is None else w[i] * form[i])", "w[i]",
     ["tests/test_contractions.py"]),
    ("transform: jets mapped with the radius row of T", "src/laguerre/hypersurface.py",
     "jet_rows = M[2:-1, 2:]", "jet_rows = M[2:, 2:]",
     ["tests/test_hypersurface.py"]),
    ("transform: second jets through a closure that holds itself and the source",
     "src/laguerre/hypersurface.py",
     "        return patch_from_pencil(patch, h1, h2,\n"
     "                                 lambda: [_image(patch.d2x, jet_rows, ngrid),",
     "        def image(f):\n"
     "            return _image(f, jet_rows, patch.ngrid) if f.ndim else image(f)\n"
     "        return patch_from_pencil(patch, h1, h2,\n"
     "                                 lambda: [image(patch.d2x),",
     ["tests/test_hypersurface.py"]),
    ("R^n_1 jet tails: zero radius row last instead of first", "src/laguerre/spaceforms.py",
     "[(1, 0) if axis == order else (0, 0)", "[(0, 1) if axis == order else (0, 0)",
     ["tests/test_hypersurface.py"]),
]


def tests_fail(tests: list, edit: tuple | None = None) -> bool:
    """Whether the named tests fail on a copy of the repository, with the
    edit (file, old text, new text) applied when one is given."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis"))
        if edit is not None:
            file, old, new = edit
            source = (copy / file).read_text()
            if source.count(old) != 1:
                raise SystemExit(f"{file}: mutant text must occur exactly once: {old!r}")
            (copy / file).write_text(source.replace(old, new))
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), OPENBLAS_NUM_THREADS="1")
        proc = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                               *tests], cwd=copy, env=env, capture_output=True, text=True)
    return proc.returncode != 0


def main(argv: list) -> int:
    chosen = [m for m in MUTANTS if not argv or any(a in m[0] for a in argv)]
    if tests_fail(sorted({t for m in chosen for t in m[4]})):
        raise SystemExit("the named tests fail on the unmutated tree")
    caught, total = Counter(), Counter()
    for name, file, old, new, tests in chosen:
        hit = tests_fail(tests, (file, old, new))
        caught[file] += hit
        total[file] += 1
        print(f"{'caught  ' if hit else 'SURVIVED'} {file}: {name}", flush=True)
    for file in total:
        print(f"{file}: {caught[file]}/{total[file]} caught")
    print(f"all: {sum(caught.values())}/{sum(total.values())} caught")
    return 0 if caught == total else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

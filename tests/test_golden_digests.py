"""CLI reports byte for byte: the sha256 of ``cli.main`` stdout per command.

The digests were recorded from the implementation that called ``eigenvalue``
once per mode, looped over m in the catalog closed forms and rendered every
report cell on its own.  The array eigenvalues, the array closed forms and
the column renderer must reproduce those bytes exactly.  The list covers
the large closed-form reports (spectrum and coefficients at N = 2e4 in JSON
and CSV, the N = 1e5 power-sum norm), the quadrature route and ``verify`` on
three configurations.  The handle-route entries (``converge`` and ``norms``
on handles, direct and rescaled ladder coefficients, the quadrature Gram of
the orthonormality suite) were recorded from the implementation that
assembled the residual f - s_M pointwise and formed each Gram entry with
its own inner-product call; the residual taken on the quadrature grid and
the one ladder sum per Gram must reproduce them.  The direct-route entries
off the default interval were recorded from the implementation that made
one inner-product call per mode; the one ladder-sum row over all scaled
basis functions must reproduce them.  The last four were recorded from the
implementation that summed each ladder-sum entry on its own; the row-wise
reduction of the one matrix must reproduce them.  The ``verify --N 6`` and
``--N 10`` entries were recorded from the implementation that checked the
fundamental relation one mode at a time and evaluated trig polynomials
through ``basis_eval`` term by term; the batched checks must reproduce them.
The last two pin verify far from the origin and on a short interval, where
the quadrature probe and the exact-route tolerance are scaled.

A change that alters a report on purpose updates the digest in the same
change and says which rows changed and why; a digest is never refreshed to
make a failure go away.
"""

import hashlib
import shlex

import pytest

from semifourier.cli import main

DIGESTS = [
    ("spectrum --N 20000 --format json",
     "e4a721d1f0d4ac0615138b20e3921b45e0396914e9cb459999a893440b1bcd11"),
    ("spectrum --N 20000 --format csv",
     "3cf8512cdac996a738b2fd3f7f68234672602127b63f4f8ea6c59f1906cc2813"),
    ("coeffs --function sawtooth --N 20000 --format json",
     "363e22bac88bab38879e6b01d4ef10b64430e4365f4c898790a2f21788460d79"),
    ("coeffs --function sawtooth --N 20000 --n 2 --format json",
     "755060325daa2e946291f0ca6b275f50073603041a16ebb7ee457dec64e38192"),
    ("coeffs --function sawtooth --N 20000 --format csv",
     "4a156a8ad880ec6b0b72516f594ae1b56a385af28b4d6ab6f3f8ebe6c22e0f1a"),
    ("coeffs --function sawtooth --N 20000 --n 2 --format csv",
     "853c0f3bc0c94750a565b4904567ada25387b869fd1b5a3f11147b74f50dd24c"),
    ("coeffs --function synthetic:4.2 --N 20000 --format json",
     "c1a293833ca5ca9214e827f2ec0a3bd3ef0a4b7b687ddcc8fa347e505a14d7d2"),
    ("coeffs --function synthetic:4.2 --N 20000 --n 2 --format json",
     "414df3bc5d44ce60a5de55279c83785fd1eb43fe18b1933d82e5ddf88eaae057"),
    ("coeffs --function synthetic:4.2 --N 20000 --format csv",
     "846bc2869e84fdca58a98ab90b82ff9222489ca8a7856edf999fb85b7a4ebe75"),
    ("coeffs --function synthetic:4.2 --N 20000 --n 2 --format csv",
     "1dd61f0316a3b36b11ec3732e96ffb749deeb26731794a629ad16e6e1ab4a571"),
    ("norms --function synthetic:3.5 --r 1.2 --N 100000",
     "761b235af5793f61c723f487331e513fe0a474f07161d56665794a0e76f91638"),
    ("converge --function synthetic:3.1 --N 20000 --n 1",
     "d51673ba16469e598cb9bdd63edfed182fb4fe9994ad7ffb968151e0e570cec0"),
    ("coeffs --function offset-cosine --N 64",
     "adc5d561232d1dc6c52e826cf225ffded9cede959f39a0b1cdf531ac576bddf2"),
    ("verify --N 8",
     "65067b1eab9334ef9238a2431be833c3f2287f55fa6b8595c7f1853a89587734"),
    ("verify --N 8 --a 7.5 --b 10.3 --k 0.5",
     "370949389054663252c00a30f151c8ba8f652056ba660f16acd4e000e93051f0"),
    ("verify --N 8 --a -2.5 --b 0.75 --k 2.2",
     "746c9ffcdd62b7085887425dc5332d66a5f70c4a811714460fb5d924013f3262"),
    # the L2 norm without --n, and CSV of the other report kinds
    ("norms --function synthetic:3.5 --N 500",
     "209e5a1f77febab64a903e255912f3dee476ffd77ae337c9be46581441972f21"),
    ("converge --function synthetic:3 --N 100 --format csv",
     "71591360fcaa9a66417af9ecd53448e2ac82977a2b05a96724f29b750799b0c8"),
    ("coeffs --function mode:3:sin --N 6 --format csv",
     "1b9fa60c8b55652641a847f10ca976f92b5f88c2e89f4fad07cab0decbb654d4"),
    ("verify --N 8 --format csv",
     "635a8c0625fe788f41a2bbcfa81701524a947658c644ce0cf8eb61dc19c22765"),
    # handle routes: the grid residual of converge, the ladder sum of norms
    # and direct coefficients, the rescale route and the quadrature Gram
    ("converge --function sawtooth --N 64 --n 2",
     "ba295141c4f46413b4263c562db6b6c193d7613bad4a3d0609c4370bda6b27fd"),
    ("converge --function offset-cosine --N 128 --n 2",
     "2fd8308d6e570d57a80aaf917f917eccefccf8564630229ebf3ff70234120fe6"),
    ("converge --function offset-cosine --N 100 --n 1 --a 7.5 --b 10.3 --k 0.5",
     "f0f10640382c4bd97b287bd645f83199b544de7fc756f62b99f15b76f0790fc4"),
    ("converge --function sawtooth --N 77 --n 2 --a -2.5 --b 0.75 --k 2.2",
     "cbba4d7c85178397eb811acbafed0ae8d7fd792400491cfc1d66c9d48aa9ef63"),
    ("norms --function offset-cosine --n 3",
     "14dab31eb3222994f7c1153b103e5c10ade81fab54a935d1958fe06226bee09d"),
    ("coeffs --function sawtooth --N 12 --n 2 --method direct",
     "cc386520c92c325d14ac898c4b7d1d74ba55e147a86e7e4d4b5ec52bd88ee23e"),
    ("coeffs --function sawtooth --N 300 --n 2",
     "b02510fdd2008880d18194e7f44dc1443a467e3fdf752366366361eac1b2b0cf"),
    ("verify --suite quadrature --suite orthonormality --N 12",
     "5dc6e43d1dcbfa9423caef3d9117a6cf34cc084bd7b5ce6a101152ee12df088a"),
    # direct ladder coefficients off the default interval, for a handle with
    # vanishing high derivatives and one without
    ("coeffs --function sawtooth --N 16 --n 3 --method direct --a 7.5 --b 10.3 --k 0.5",
     "8fdf07f17441566bffb96415b8274ece4a921ec5395f98f29390600ef80c7064"),
    ("coeffs --function sawtooth --N 16 --n 3 --method direct --a -2.5 --b 0.75 --k 2.2",
     "c338e63ae58302ff723fd054b8437526b0484721edb14664f2aa04183f837fe7"),
    ("coeffs --function offset-cosine --N 16 --n 1 --method direct --a 7.5 --b 10.3 --k 0.5",
     "2372217ba5e1294eafeeffbe535e7a01fc60684381f87f423f8be6a367a2a2ed"),
    ("coeffs --function offset-cosine --N 16 --n 1 --method direct --a -2.5 --b 0.75 --k 2.2",
     "99a8846d59176e67548c00bfaa2604b4ffdd35ef8142368968d54cdf15978341"),
    # the power sums of norms and converge, and the parseval, bessel and
    # error-tail rows off the default interval
    ("norms --function sawtooth --n 2 --N 5000",
     "a79b3b5670e519601fc3518e509b4cd5ed645f961b31c209889c54587b7a7bf6"),
    ("norms --function synthetic:4 --n 1 --N 3000 --format csv",
     "2c05a94613364ea538b9217858b31a0e333188792f661d789a16412ba7705eb4"),
    ("converge --function synthetic:2.5 --N 4096 --n 2 --format csv",
     "56f6264277f49fa249d30cfa3a57b996a2f2e60abeba70c98d703944ec181bb9"),
    ("verify --suite parseval --suite bessel --suite error-tail --suite ladder-fixtures"
     " --N 10 --a 3.3 --b 5.9 --k 0.3",
     "c0b7b1b674ef29d3287910ea017c6f3bde4c3ba81241b15087ee79a05de8a335"),
    # the ladder sum as one matrix: Gram and operator matrices at n = 4 far
    # from the origin and in CSV, direct coefficients and the handle residual
    ("verify --suite orthonormality --suite operator-matrix --suite fundamental-relation"
     " --suite rescale --suite lower-bound --N 10 --n 4 --a 1000.25 --b 1002.75 --k 0.3",
     "e74bc65f3fc6d28fa792e7533af362ecb28b1e458d96d8649ad07d6ce5ecc228"),
    ("verify --suite orthonormality --suite operator-matrix --N 12 --n 4 --a -2.5 --b 0.75"
     " --k 2.2 --format csv",
     "b03c1259708b53cec009b2a559e7c3a094eb30373fed593b6833d8c1f96ad196"),
    ("coeffs --function offset-cosine --N 24 --n 4 --method direct --a 1000.25 --b 1002.75"
     " --k 0.3 --format csv",
     "e0a71e4f8c1ab76dc7f43c5c59e0cfddcd6a4576484914cdf48ecb39d5bd43a5"),
    ("converge --function offset-cosine --N 48 --n 3 --a 1000.25 --b 1002.75 --k 0.3",
     "830238b5171203e98dad142ee1472c00467470659d0e1b56665b5782307f1725"),
    # the other selfcheck sizes, on the three verify configurations
    ("verify --N 6",
     "ad5ea442a1c0da359aab16cc53554444ec126854228d5be54ed16848b082771f"),
    ("verify --N 6 --a 7.5 --b 10.3 --k 0.5",
     "fd9a107a8db4472470375d7dd6f8f9125fd86484cbe51cd05b40838e062d9170"),
    ("verify --N 6 --a -2.5 --b 0.75 --k 2.2",
     "912baca84c4bff81d8bf7bfd32eb4a10fad473173e47dfaf44e5d380bb9e6c1b"),
    ("verify --N 10",
     "4a4f213640b8f4bcbe88e50c41c470037b49b804f2f24031a39510e8972df219"),
    ("verify --N 10 --a 7.5 --b 10.3 --k 0.5",
     "8557258d9e8b52b712b96a34bb0a87ca67986f89d53fdd74a48759379298d0aa"),
    ("verify --N 10 --a -2.5 --b 0.75 --k 2.2",
     "eed26a1c752436b3b98ae0ea6f1ff0a22db77ffe85be32e066d1fc5c887478d7"),
    # every suite with b above 700, and with lambda_8 near 9e3
    ("verify --a 1000.25 --b 1002.75 --k 0.3",
     "6a208bfc6075b6ae9eba27322f1ee329e5303cc74e9ef9dac3c5fbd79c1b2f65"),
    ("verify --a 0 --b 0.5",
     "9e11f9f1c03a1bae759fecdabb2a93be63779aadb45e73f3775177881b0a8ca2"),
]


@pytest.mark.parametrize("command,digest", DIGESTS, ids=[command for command, _ in DIGESTS])
def test_report_bytes_unchanged(command, digest, capsys):
    assert main(shlex.split(command)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

"""Frozen outputs of `fit` on a small corpus of synthetic problems.

Each case is (truth, noise_sd, seed, n, anchor, anchor_weight): the first n
observations of a `synth.generate` stream on the default scheme (kernel
5000, step 5000), fitted plain (anchor None) or anchored.  FROZEN holds the
`float.hex` of (a, b, c, sse) that `fit` returned for each case before the
profile kernel was rewritten (bounded Brent inlined, b-independent terms
hoisted); the rewrite keeps every bit.  SOLVES holds the profile solve
(sse, a, c, dsse_db) of that same code at a few fixed b, so a reordered
expression in the solve shows even where the fit's outputs absorb it.
The values were produced with numpy 2.4.6 and its bundled OpenBLAS on
x86-64; another BLAS may round the dot products differently.
"""
from convergema import FitProblem, GeneratorSpec, PowerLawCurve, generate

TRUTHS = (
    PowerLawCurve(a=2.0 * 5000.0 ** 0.85, b=0.85, c=99.3),
    PowerLawCurve(a=8.0 * 5000.0 ** 0.5, b=0.5, c=93.0),
    PowerLawCurve(a=20.0 * 5000.0 ** 0.3, b=0.3, c=88.0),
)
LENGTHS = (3, 4, 6, 10, 20, 45, 90, 180)

CASES = tuple(
    (i % len(TRUTHS), noise, i, n, anchor,
     1.0 + 0.5 * (i % 2) if anchor is not None else 1.0)
    for i, n in enumerate(LENGTHS)
    for noise in (0.0, 0.05)
    for anchor in (None, 100.0)
)


def problem(case) -> FitProblem:
    truth, noise, seed, n, anchor, weight = case
    log = generate(GeneratorSpec(truth=TRUTHS[truth], levels=n,
                                 noise_sd=noise, seed=seed))
    return FitProblem.from_arrays([o.x for o in log], [o.accuracy for o in log],
                                  anchor=anchor, anchor_weight=weight)


# (a, b, c, sse) as float.hex, one row per entry of CASES
FROZEN = (
    ('0x1.5c63999d2c9e9p+11', '0x1.b333333333305p-1',
     '0x1.8d33333333333p+6', '0x1.0000000000000p-92'),
    ('0x1.2da4141e0a5adp+8', '0x1.1ba9457cb3e68p-1',
     '0x1.8ffeed3d0fa66p+6', '0x1.1e3547fd35db3p-10'),
    ('0x1.01b56766c0152p+9', '0x1.407f9725e64c4p-1',
     '0x1.8f32599407266p+6', '0x0.0p+0'),
    ('0x1.4727be411d691p+8', '0x1.208d904e95ecfp-1',
     '0x1.8fffc19eaa6a0p+6', '0x1.ba85e7399843cp-15'),
    ('0x1.1ad7bc01365b6p+9', '0x1.fffffffffff79p-2',
     '0x1.7400000000007p+6', '0x1.0000000000000p-91'),
    ('0x1.9db4fde210bd2p+6', '0x1.d123cd06a42e0p-3',
     '0x1.8ffee4d63b47dp+6', '0x1.90ef2c2c6b070p-6'),
    ('0x1.48c647e3f4a9bp+10', '0x1.3c3b0855f74bep-1',
     '0x1.6f60d6457a0c9p+6', '0x1.0459b90bd2bbbp-11'),
    ('0x1.91b0895500419p+6', '0x1.caaa48452171cp-3',
     '0x1.8ffe7aab0114cp+6', '0x1.925e97138f6ecp-5'),
    ('0x1.017776f1f5bd4p+8', '0x1.333333333332ep-2',
     '0x1.6000000000001p+6', '0x0.0p+0'),
    ('0x1.0d257472864f8p+7', '0x1.5a3115cf94646p-3',
     '0x1.8ffd4f458434fp+6', '0x1.c7d86f2f7ba33p-5'),
    ('0x1.82e2c9242d658p+7', '0x1.fdc8d53d06f6ep-3',
     '0x1.6cf175ea5190bp+6', '0x1.2c8f15bab17a7p-6'),
    ('0x1.0eb9bb517838fp+7', '0x1.5b6b9ad229ba3p-3',
     '0x1.8ffe5cab0037bp+6', '0x1.3e417d74661c2p-5'),
    ('0x1.5c63999d2cb71p+11', '0x1.b33333333334ep-1',
     '0x1.8d33333333333p+6', '0x1.0000000000000p-92'),
    ('0x1.1d86c0f8eabadp+7', '0x1.e1c3fce72eb14p-2',
     '0x1.8fe9d9c9613d1p+6', '0x1.42b5189f5cec2p-5'),
    ('0x1.07f68acc3a81dp+8', '0x1.1d111b7ecde28p-1',
     '0x1.8ec8641f810aap+6', '0x1.6fee5962bdd5dp-5'),
    ('0x1.debd240c5e175p+6', '0x1.cd729c49f5aa2p-2',
     '0x1.8ffa44b689330p+6', '0x1.898e01b1cd435p-5'),
    ('0x1.1ad7bc01366b7p+9', '0x1.ffffffffffffep-2',
     '0x1.7400000000000p+6', '0x1.0000000000000p-90'),
    ('0x1.020a0ea737e3ep+6', '0x1.694dc6fe932cbp-3',
     '0x1.8fcc1d35beba6p+6', '0x1.02db48d38443ep+0'),
    ('0x1.2e21b25b247d9p+9', '0x1.0438017acdd24p-1',
     '0x1.73c585a671b9bp+6', '0x1.009ac19529649p-4'),
    ('0x1.029dc40de7052p+6', '0x1.69bbb0d1bcf74p-3',
     '0x1.8fcae468c74c6p+6', '0x1.1f2fde65e1b99p+0'),
    ('0x1.017776f1f5be0p+8', '0x1.3333333333336p-2',
     '0x1.6000000000000p+6', '0x1.1000000000000p-88'),
    ('0x1.9c341c218243dp+6', '0x1.221a205e31ac1p-3',
     '0x1.8fad315a76845p+6', '0x1.90d5cdd61eb38p+1'),
    ('0x1.0dfc2a7eb758dp+8', '0x1.3a1e542eb05f7p-2',
     '0x1.5efb54a152c8cp+6', '0x1.45b8a5c4beb65p-4'),
    ('0x1.9b92d1efa66d7p+6', '0x1.21b7f3a446d6fp-3',
     '0x1.8fa9e24eb3441p+6', '0x1.be5edfadc1ebdp+1'),
    ('0x1.5c63999d2cadep+11', '0x1.b333333333331p-1',
     '0x1.8d33333333333p+6', '0x1.4000000000000p-90'),
    ('0x1.0d211f4f60166p+10', '0x1.7a86e34b86e6fp-1',
     '0x1.8d6959f57b286p+6', '0x1.d452bdea4af9dp-2'),
    ('0x1.909bbe6277684p+11', '0x1.bd32c57f7a03ap-1',
     '0x1.8d2a6eac75f0ap+6', '0x1.8fbefe9a5b876p-3'),
    ('0x1.3b9a3f12faf76p+10', '0x1.85ab1485ada8dp-1',
     '0x1.8d5bc38b7b04ap+6', '0x1.55745728010dep-1'),
    ('0x1.1ad7bc01366e7p+9', '0x1.0000000000009p-1',
     '0x1.7400000000000p+6', '0x1.5800000000000p-87'),
    ('0x1.dcc8e13d211f7p+4', '0x1.aefb75f2a90cdp-4',
     '0x1.8ee2ccfbece89p+6', '0x1.e770fc96e8391p+3'),
    ('0x1.12eb44b21c144p+9', '0x1.fc8f588fd4ba8p-2',
     '0x1.7404ff1c7acc3p+6', '0x1.5fe17c8f4ac17p-2'),
    ('0x1.dddec54688401p+4', '0x1.af54a6b870fd3p-4',
     '0x1.8ee363620282fp+6', '0x1.ecba2eb1f8a1ep+3'),
)

# (case index, b, (sse, a, c, dsse_db) as float.hex)
SOLVES = (
    (13, 0.01, ('0x1.37ea29b49ad43p+1', '0x1.8ce945bfc5972p+0',
              '0x1.90168cd62543ep+6', '-0x1.29b57f8096668p+3')),
    (13, 0.3, ('0x1.41cc029b79cebp-2', '0x1.fb8cf13c3b834p+4',
              '0x1.90c8e6fc7bed8p+6', '-0x1.d28d2113bae30p+1')),
    (13, 0.5, ('0x1.719952849f199p-5', '0x1.6ee1d07ce009ap+7',
              '0x1.8fbd8973447ccp+6', '0x1.8156da5da9d13p-2')),
    (13, 1.7, ('0x1.8b58f662e0d75p+0', '0x1.dae48fe226d2bp+21',
              '0x1.8c73013a90295p+6', '0x1.98d59d4345569p-1')),
    (23, 0.01, ('0x1.2f90e7fe873fap+8', '0x1.816a339a37d88p+4',
              '0x1.92aee65d6ee7fp+6', '-0x1.1042f50eca28bp+12')),
    (23, 0.3, ('0x1.3d934b12c121ap+7', '0x1.570e2a2de34cap+8',
              '0x1.6ccc3951d9682p+6', '0x1.352e9e1db7be6p+10')),
    (23, 0.5, ('0x1.64dc5205ceb5dp+8', '0x1.84695479c1b00p+10',
              '0x1.563540996db8cp+6', '0x1.76624e2bedba4p+9')),
    (23, 1.7, ('0x1.65554901415bcp+9', '0x1.d20dbee472866p+24',
              '0x1.421d97f91e4fbp+6', '0x1.dc4b6f6d7f75dp+6')),
    (27, 0.01, ('0x1.54d95258ae0c5p+2', '0x1.25627658f0037p+0',
              '0x1.90a47ed307106p+6', '-0x1.081e02ffa1ca5p+5')),
    (27, 0.3, ('0x1.159044ca3dc46p+0', '0x1.7b24f9637b04cp+4',
              '0x1.8f41f9c5cc7b1p+6', '-0x1.e4cf34cbf6542p+0')),
    (27, 0.5, ('0x1.9cdba1481edd1p-1', '0x1.001b0b9173ff9p+7',
              '0x1.8e058d5201fc6p+6', '-0x1.099b1f0b31e41p+0')),
    (27, 1.7, ('0x1.947cf4b9c4538p+0', '0x1.ef035a587a0f9p+21',
              '0x1.8cce6dc4f9d14p+6', '0x1.25b385f7c88c9p+0')),
    (30, 0.01, ('0x1.5cdd5885109dbp+4', '0x1.8219d595bbf6ap+6',
              '0x1.61b4f95699b40p+7', '-0x1.1e89785e7c2a8p+6')),
    (30, 0.3, ('0x1.1e42c1339944ap+2', '0x1.93fbab898cbe2p+6',
              '0x1.78bf98cd572efp+6', '-0x1.45906c62a93e2p+5')),
    (30, 0.5, ('0x1.612408f82b054p-2', '0x1.1b3899ab95804p+9',
              '0x1.73f87d065a18dp+6', '0x1.76fa76303e98ap-1')),
    (30, 1.7, ('0x1.cd179b1c69ce4p+5', '0x1.ff0a8a830f189p+23',
              '0x1.6fd571fbcacb2p+6', '0x1.26430e7b3ff04p+5')),
)

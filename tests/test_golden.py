"""Golden outputs: CLI stdout and artifacts pinned by sha256.

Every run of ``test``, ``estimate`` and ``meta`` (default flags, and
``--hedges --model fixed``) on each bundled dataset, and a set of seeded
``simulate`` and ``demo`` runs, is compared with a fixed reference, not
just with a rerun of itself.  A change that alters any of these bytes on
purpose must say so in CHANGES.md and refresh the table below; print the
current digests with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import tempfile
from importlib.resources import files
from pathlib import Path

import pytest

from sumnorm.cli import main

DATASETS = ("banach2016", "ferretti2017", "ferretti2017_mmp9",
            "hawkins2017_bnp", "zhang2017", "zhang2017_leptin")

RUNS = {
    "test": ["test"],
    "estimate": ["estimate"],
    "meta": ["meta", "--output-dir", "out"],
    "meta-hedges-fixed": ["meta", "--hedges", "--model", "fixed",
                          "--output-dir", "out"],
}

_OUT = ["--output-dir", "out"]
_SMALL_GRID = ["--grid", "4,5,7,10,200", "--replicates", "2000", *_OUT]
_POWER_GRID = ["--grid", "4,10,50", "--replicates", "2000", *_OUT]

# name -> argv of a seeded Monte Carlo run.  The type I runs cover the
# smallest n, where [0.25n] is 1; the 20001-replicate run crosses the
# 20000-row chunk boundary; each family is drawn once under --power.
SIM_RUNS = {
    "simulate/type1-s1": ["simulate", "--type1", "--scenario", "s1",
                          *_SMALL_GRID, "--seed", "7"],
    "simulate/type1-s2": ["simulate", "--type1", "--scenario", "s2",
                          *_SMALL_GRID, "--seed", "7"],
    "simulate/type1-s3": ["simulate", "--type1", "--scenario", "s3",
                          *_SMALL_GRID, "--seed", "7"],
    "simulate/type1-s3-chunks": ["simulate", "--type1", "--scenario", "s3",
                                 "--grid", "10", "--replicates", "20001",
                                 *_OUT, "--seed", "11"],
    "simulate/type1-s3-kappa": ["simulate", "--type1", "--scenario", "s3",
                                *_SMALL_GRID, "--kappa-c", "10.5",
                                "--seed", "7"],
    "simulate/power-normal": ["simulate", "--power", "--scenario", "s1",
                              "--dist", "normal:1,2", *_POWER_GRID,
                              "--seed", "5"],
    "simulate/power-lognormal": ["simulate", "--power", "--scenario", "s1",
                                 "--dist", "lognormal:0,1", *_POWER_GRID,
                                 "--seed", "5"],
    "simulate/power-chisquare": ["simulate", "--power", "--scenario", "s2",
                                 "--dist", "chisquare:1", *_POWER_GRID,
                                 "--seed", "5"],
    "simulate/power-exponential": ["simulate", "--power", "--scenario", "s2",
                                   "--dist", "exponential:3", *_POWER_GRID,
                                   "--seed", "5"],
    "simulate/power-beta": ["simulate", "--power", "--scenario", "s3",
                            "--dist", "beta:1,5", *_POWER_GRID,
                            "--seed", "5"],
    "simulate/power-weibull": ["simulate", "--power", "--scenario", "s3",
                               "--dist", "weibull:2,3", *_POWER_GRID,
                               "--seed", "5"],
    "demo/all-pairs": ["demo", "--seed", "3", "--pairs",
                       "lognormal,chisquare,exponential,beta,weibull,normal"],
}

_ENV = ("SUMNORM_ALPHA", "SUMNORM_SEED", "SUMNORM_KAPPA_C")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def dataset_argv(run: str, dataset: str) -> list[str]:
    csv_path = str(files("sumnorm") / "data" / f"{dataset}.csv")
    return [RUNS[run][0], csv_path, *RUNS[run][1:]]


def run_digests(argv: list[str], workdir: Path) -> dict[str, str]:
    """sha256 of stdout and of every artifact of one run in ``workdir``.

    Artifacts land in ``workdir/out`` under a relative path, so the
    ``report:``, ``csv:`` and ``svg:`` lines do not depend on where
    ``workdir`` is.
    """
    stdout = io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(stdout):
            code = main(argv)
    finally:
        os.chdir(cwd)
    assert code == 0, f"{argv} exited {code}"
    digests = {"stdout": _sha(stdout.getvalue().encode("utf-8"))}
    out_dir = workdir / "out"
    if out_dir.is_dir():
        for path in sorted(out_dir.iterdir()):
            digests[path.name] = _sha(path.read_bytes())
    return digests


# run/dataset -> {stdout or artifact name: sha256}
GOLDEN = {'estimate/banach2016': {'stdout': '415de5e53ad4594fa8bc7cf303f3e5263fa54f1d02196fcc8cee4ea7c2a6d30f'},
          'estimate/ferretti2017': {'stdout': '7b442bed037c48670ecc7845b96e0e5dd35178f647e40bf20b7f24bee90fd891'},
          'estimate/ferretti2017_mmp9': {'stdout': 'ecf645cd7aa43d806cd44ad63b491d28dafe409ed3b8fddfd37591873840e318'},
          'estimate/hawkins2017_bnp': {'stdout': 'eaeec716b8086009128df2319be876b88e4d635b256eedc50b4c214ffe224e19'},
          'estimate/zhang2017': {'stdout': '92fd1868428d09c580520522505ba49fa2059a9a8ebc03e04c20a309c6bf5074'},
          'estimate/zhang2017_leptin': {'stdout': '7ecae8d032402e67d2be1380bb486be0f22dc009cb15bac61673f87d5197f6dd'},
          'meta/banach2016': {'stdout': '902cc1ae460ad98c691c1ab1d057b6f6d3f31487802b2a99dc6311b56fb81f91',
                              'forest_hdl-c.svg': '101615f0162ad57050ad64dd5873cb2f4c958fe288ada23586f7cc7eff943428',
                              'forest_ldl-c.svg': 'f4c9922a24da389a5e90f0754d83f7e74865f7b898da0e5413eeee4975acf8be',
                              'forest_total-cholesterol.svg': '91ac8a391c5f3ec50178c804c0a15ac9a09bf7b5cdf1a71a27cfd48b252fcc17',
                              'forest_triglycerides.svg': '77b55567ac35fc5d98b1e17bd17caa1f4d8ff3f07754d8938bd1ef1b87183854',
                              'report.json': '1bc9f97333b928f79a514cc154208fa67cb54935ba134985bf8e525a9d831982'},
          'meta/ferretti2017': {'stdout': 'e8e8d2bee1cd074c06bac71f8775a13e680d249db7bbf1ef8f9c4b87a06b5a30',
                                'forest_mmp-3.svg': '6a59dac92edb74f55f952ed3a9f04eef9cea1c4fc47eaecc1c052670423b733d',
                                'forest_mmp-9.svg': '250c4c6331ab267da7d259aec71d5663661db9498ee8449dde535cc938a66bf5',
                                'forest_timp-i.svg': 'f7add32b7d49ee7bc00977ea7b7e4a3fcd701ff27bbef1e16737141fc6d042cc',
                                'report.json': '484fea190f679ac6852c4a536f6425dc9c3e337d884895164238f6b07ed84f4c'},
          'meta/ferretti2017_mmp9': {'stdout': '00e340fbfe74d34f0efc9e4f5fee32684455b9d2ba04bcb2da3f959d468d7fb0',
                                     'forest_mmp-9.svg': '250c4c6331ab267da7d259aec71d5663661db9498ee8449dde535cc938a66bf5',
                                     'report.json': '9167d9349c534a42b68517fdc17976a44a594adaf56831ad21787ede96ef1af3'},
          'meta/hawkins2017_bnp': {'stdout': '008dbdb46be8c2db1caec27515f53401a5da0c0ff66bc457953182fe9371d349',
                                   'forest_bnp.svg': '5581cbb8aec4d98464742a6556968f5b076dc5500156364a08864be35c4ef27e',
                                   'report.json': '9e0ff98939a40ffe833376b71987c6d221df5122a1aa9850fc8c2f3c04e84a0d'},
          'meta/zhang2017': {'stdout': '2b190a3bb597347f56b85891b54f166d2248c92cd595723c8020854bdf979792',
                             'forest_adiponectin.svg': '75989e71aef11c577facb10ebc86b3a136021ffc8c44068de51127a40e163ec6',
                             'forest_leptin.svg': '52c163678fa406feb9c3b403471b353ebb26aef1b884a3335de541fd8e7b1713',
                             'report.json': '621649ba5deb7d4940fa10592668095bb77f8c16f5743508ac21482a40a736ca'},
          'meta/zhang2017_leptin': {'stdout': 'ca56fb0d6254f82b32a76bea39b172ea1ec8fd2474d92d64b27cd74a7f3a8745',
                                    'forest_leptin.svg': '52c163678fa406feb9c3b403471b353ebb26aef1b884a3335de541fd8e7b1713',
                                    'report.json': 'b83f43df0f0a3ea4c2fd8104b18c5cb87fb9efcfff77ee6311f81c82e764c924'},
          'meta-hedges-fixed/banach2016': {'stdout': '1c1641b9e2c136bdd442240852686ae3142d75d40431d9b398677d8730e0a7ae',
                                           'forest_hdl-c.svg': 'b3abf9e88e14635a09741602116d68bdb15d5d4d4017c697d24d1813e78a660a',
                                           'forest_ldl-c.svg': 'c7adbfcbb6b2caa211fda8bd8179f5748399adf85a9ac03caba1a214813e7e83',
                                           'forest_total-cholesterol.svg': '8aa9344b03baa26489dd5c0bcde9d53a152405417bc3d81023dc860fda6b6b05',
                                           'forest_triglycerides.svg': 'a9bd753f76b10e82581f66deea5423b78f306094cc23edab8f603fed81a1cdbb',
                                           'report.json': 'bfaff65c8081d4fe3541c99973405deae873e87307006e494a164d85d486de7a'},
          'meta-hedges-fixed/ferretti2017': {'stdout': 'fe40458b0a4a65f34d3ebf6040b3bc01f253478f4d42d6e050b9b3a26b7865c7',
                                             'forest_mmp-3.svg': '44d8fec6af43623104eccae76adff6fc24d1191091b97fcdca7ddcb49ebf6fed',
                                             'forest_mmp-9.svg': '49ed1c40b8ae52ec015e26659b1f8daa74812dc6cb9e5efdadfc69fd703844be',
                                             'forest_timp-i.svg': 'de09ccae62503c0e934684a95de49bf2a20f86c3fdfe1b037bfee27806f61842',
                                             'report.json': '0c119bf6af735d03a02fda5f08a9d6b8ffb5f95207c24aa6a33461837c63955c'},
          'meta-hedges-fixed/ferretti2017_mmp9': {'stdout': 'e838c1e9d6d9317cd5fd51a72d9d92fe6777f2ae79e97b98e39bb1269a482426',
                                                  'forest_mmp-9.svg': '49ed1c40b8ae52ec015e26659b1f8daa74812dc6cb9e5efdadfc69fd703844be',
                                                  'report.json': 'f894b740c5784b305e18ff77a15d4dea201eb175b81c44deaa12f8a139fd06a5'},
          'meta-hedges-fixed/hawkins2017_bnp': {'stdout': 'e1c847a916de863fdba9c50e89c4a89bae812e13348af1cb3d304154a764e6d2',
                                                'forest_bnp.svg': '66926a6b30c8dc628029eda3daad0ecd27a122f78dc660e988a8bfb059ceb6fb',
                                                'report.json': '1d5fa3b3d3a7e1df5bed802b3405dec7dbbc3a29edaadec0947f659f094a9bc9'},
          'meta-hedges-fixed/zhang2017': {'stdout': '205ea538679a09979fdda88c9a323e3ff0b3f9f4b8fb60ae92d1036b243ff51d',
                                          'forest_adiponectin.svg': '2360421fe5385dc2ccf1b412d2d63dea568383a3ceac013e2f8dce5abeb8e2c6',
                                          'forest_leptin.svg': '186d8583769a7c624ecdb054d04d9014f47ee9c5e107fc3467e34f2a8d5024be',
                                          'report.json': '855f382924bb4f9d48e8e0901161de63000109eeb2dfccbe7bd614b50b47e0c5'},
          'meta-hedges-fixed/zhang2017_leptin': {'stdout': '2a23a881b94e516a2c535b28b3cc46790b8307b1413a9b0cf3fc798a7ae1993e',
                                                 'forest_leptin.svg': '186d8583769a7c624ecdb054d04d9014f47ee9c5e107fc3467e34f2a8d5024be',
                                                 'report.json': '83b64a261ff5e89e23b2b102e25350412fbdaf2a9502007c63d0eb2e9e50caea'},
          'test/banach2016': {'stdout': '3f850ea1b80dc3f26ec8bca56f861ab77f69dbd566b48af96050b4eaaddb1316'},
          'test/ferretti2017': {'stdout': '246474c1a4990bce6d85c8a022415e543478f4c86fd97427ce6dfb4a66eb711a'},
          'test/ferretti2017_mmp9': {'stdout': 'b76ece3fe34493a590ae84a8be1987c6df756b5aaf0f35848c9fe428ad304851'},
          'test/hawkins2017_bnp': {'stdout': 'a8172ddd05e5a1d4817e498e0bdefb6c10950178a49a7fe2534ccaa19de612e1'},
          'test/zhang2017': {'stdout': '561456bb7e8a5d45714fadfde57e70bd1e542e75abd17a3b3876fdf4c8345aaa'},
          'test/zhang2017_leptin': {'stdout': '7fd6e033d4363c695c0c81849fc88850f97fbae93e20159de398d0ab60d55059'},
          'simulate/type1-s1': {'stdout': 'f9a701df69e3aa1bf5cd5356b026eff07375a0527a6db0ed9d75c7c7b0edb379',
                                'type1_s1.csv': '54b6951c3bf592a9cc732ef91eb18abe4738d9b4507d059a53ce6b41cb7ee3ae',
                                'type1_s1.svg': '4f4734c0fdd0c171a37425e21cf1c112634653cb8c2583988726177560c504e6'},
          'simulate/type1-s2': {'stdout': 'cc7807d4864daade97bdcfa165e92dd84b5ca07b5061fb2b1abd845e1e7d81e9',
                                'type1_s2.csv': '06eb89851f9a13b01b86f921b5b75c0d048387da6641ba3f792cd0c5e6002d7f',
                                'type1_s2.svg': 'ed435cd2ca78e86031c2fcd661622d319f5d91914280540a61abc3cc8f8b8ed3'},
          'simulate/type1-s3': {'stdout': 'f6dc8ab637db43e4fc33c7c3b87f47381fd672a78a993f045f81eab4970706fa',
                                'type1_s3.csv': '4252cdc961bc6ea0dc2754fd3c1af797069ed82a476b2b44c145fc97d9a2a2e4',
                                'type1_s3.svg': 'fbfb04ca8191c627fe32ab04a849d87096c911a1e8505ad551afb97cbb3de1d4'},
          'simulate/type1-s3-chunks': {'stdout': '849824188874f4e211d3ecdc5810a98072e988122249c383cd1bb9bf6a2a8f3a',
                                       'type1_s3.csv': '6a1f6bc88e870a6b414204120e9b7f1357109aa67942a6915632a8309c809444',
                                       'type1_s3.svg': 'f49cb80f945eb346ac64ebc44fafb60cfa3e191a79fe1afd8b33edec1b2e0f8e'},
          'simulate/type1-s3-kappa': {'stdout': 'b92f7e4dbc0643ff5ef0b12240e8f75ae0fb1ec194c01c351c8b2642286f9821',
                                      'type1_s3.csv': 'b56fda157850f7a24481d63972dacf759f1d784fdf5e60b2be894b1fe8ce7e7b',
                                      'type1_s3.svg': 'f1fea88707c0487e97ad7eefae2e3f885632640e13a721225e21cc2e894172d7'},
          'simulate/power-normal': {'stdout': '844e0aa5f1796398b247337166509196e9d7b917e7e91be91dfff931c96083eb',
                                    'power_s1_normal-1-2.csv': '7380e74261f1f6d61b85da3166f7b176ea3ffcbadc0546c5e2f828ef997eaef5',
                                    'power_s1_normal-1-2.svg': '14d95c08936bda24073241872cce7715792d75f713b3247c03c4bdb9dd050a5e'},
          'simulate/power-lognormal': {'stdout': '44bf04d5ffe2736ea226aa58dcf7600887a7a0c04df322c83e5a8a6fc1d22ca2',
                                       'power_s1_lognormal-0-1.csv': '1a7467e03394facbed2c2403fa4a0fb0cf9afe3b784fd96b86632573a09eebd2',
                                       'power_s1_lognormal-0-1.svg': '8576ba067b37661ae868e961f53813d06ff1d8738b0c1cc7693decb11fa967b1'},
          'simulate/power-chisquare': {'stdout': 'f2083b914bd7766ae3a8a989d736e99cab0f43b3dc77cac242315bac1f17f74c',
                                       'power_s2_chisquare-1.csv': '7198393e4bf76efd193728a361cf54db87b3a1c53673fa753eca5e3672937887',
                                       'power_s2_chisquare-1.svg': '6dad7460d9c6ec029dbac34e5d611f0dc4bf83d878d8b8be90e8e99a688c9e69'},
          'simulate/power-exponential': {'stdout': 'ddfc24f8db7eee39f861a807c82874809bf57cc32832489a6840fe62c34ecdda',
                                         'power_s2_exponential-3.csv': '7e90aab2624964e1562dbb356e987f592f850baca7015465e8e2b58219cdaebf',
                                         'power_s2_exponential-3.svg': 'ed98241fac4518b5c08e257fe5ee7feecc8d623a8a5841378fe311836b6cb096'},
          'simulate/power-beta': {'stdout': '2347a07691ffab61079a5f42428d587c8cd57bb95b54457a915abd1d49cfdf34',
                                  'power_s3_beta-1-5.csv': '80568333e4039d683c3373ea40e08c5790cfa4a850d94a9f5671b5255a3e67a6',
                                  'power_s3_beta-1-5.svg': '0c786f53e7840e47f71094b1b9b6f9a3c3730bf394b2ae16a5be7fb5504c1ab1'},
          'simulate/power-weibull': {'stdout': 'f5d786d0b132d24783b05c7c210b7fd44b31986d43669ee85f5337431be73476',
                                     'power_s3_weibull-2-3.csv': '1fd4bc64fe53f4357920cdb22ff640a25d0e6fb40d8dda2f07c4cca616db4cb7',
                                     'power_s3_weibull-2-3.svg': 'f2adeca417d953fba1f0a175e8eb1c4ee8a743f5f30043d5580099dc401d1a79'},
          'demo/all-pairs': {'stdout': '06054f78fc0aad14d83e92a1b2d1bd83945c855fb73a02168957f0c9205cfc0a'}}


@pytest.mark.parametrize("dataset", DATASETS)
@pytest.mark.parametrize("run", sorted(RUNS))
def test_golden_digests(run, dataset, tmp_path, monkeypatch):
    for name in _ENV:
        monkeypatch.delenv(name, raising=False)
    got = run_digests(dataset_argv(run, dataset), tmp_path)
    assert got == GOLDEN[f"{run}/{dataset}"]


@pytest.mark.parametrize("name", sorted(SIM_RUNS))
def test_simulate_golden_digests(name, tmp_path, monkeypatch):
    for env in _ENV:
        monkeypatch.delenv(env, raising=False)
    assert run_digests(SIM_RUNS[name], tmp_path) == GOLDEN[name]


def _record_all() -> dict[str, dict[str, str]]:
    for name in _ENV:
        os.environ.pop(name, None)
    table = {}
    for run in sorted(RUNS):
        for dataset in DATASETS:
            with tempfile.TemporaryDirectory() as tmp:
                table[f"{run}/{dataset}"] = run_digests(
                    dataset_argv(run, dataset), Path(tmp))
    for name, argv in SIM_RUNS.items():
        with tempfile.TemporaryDirectory() as tmp:
            table[name] = run_digests(argv, Path(tmp))
    return table


if __name__ == "__main__":
    import pprint

    pprint.pprint(_record_all(), width=79, sort_dicts=False)

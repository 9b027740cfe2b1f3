package experiments

import "testing"

func TestAblations(t *testing.T) {
	l := quickLab(t)
	fs, err := l.FuncSort()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("FuncSort: c3=%.1f ph=%.1f none=%.1f RPS; itlb c3=%.5f none=%.5f",
		fs.C3RPS, fs.PHRPS, fs.NoneRPS, fs.C3ITLB, fs.NoneITLB)
	pl, err := l.PropLayout()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("PropLayout: decl=%.1f hot=%.1f RPS; l1d decl=%.4f hot=%.4f",
		pl.DeclaredRPS, pl.HotnessRPS, pl.DeclaredL1D, pl.HotnessL1D)
	bl, err := l.BlockLayout()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("BlockLayout: bc=%.1f vasm=%.1f RPS; branch bc=%.4f vasm=%.4f",
		bl.BytecodeRPS, bl.VasmRPS, bl.BytecodeBranch, bl.VasmBranch)
	if pl.HotnessRPS <= pl.DeclaredRPS {
		t.Errorf("hotness layout not faster than declared")
	}
}

//go:build amd64 && !purego

#include "textflag.h"
#include "funcdata.h"

// Montgomery multiplication in 4×64-bit limbs using MULX (BMI2) and the
// dual ADCX/ADOX carry chains (ADX) — the CIOS "no-carry" form, valid
// because the top limb of both BN254 moduli is below 2⁶². The Go
// wrappers only call in when the CPU supports ADX+BMI2.
//
// The macros are written once and take the field's Go variable (·Fp or
// ·Fr, a mont.Field) as the argument F: the modulus limbs are read
// from F+0..F+24 and −q⁻¹ mod 2⁶⁴ from F+32, both computed at init from
// the modulus string. Each field gets its own mul/mulVec entry points,
// so the modulus stays a global-memory operand and no extra register
// or argument is spent on selecting the field.
//
// Register map shared by all macros:
//
//	DI, R8, R9, R10   x limbs (loaded per element)
//	R11               y pointer
//	R14, R13, CX, BX  running result t0..t3
//	BP                round overflow accumulator A
//	DX                MULX multiplier
//	AX, R12           scratch

// MONT_ROUND0: t = x·y[0], overflow accumulator in BP. One ADOX chain
// folds the low words into the assigned high words.
#define MONT_ROUND0 \
	XORQ  AX, AX;       \
	MOVQ  0(R11), DX;   \
	MULXQ DI, R14, R13; \
	MULXQ R8, AX, CX;   \
	ADOXQ AX, R13;      \
	MULXQ R9, AX, BX;   \
	ADOXQ AX, CX;       \
	MULXQ R10, AX, BP;  \
	ADOXQ AX, BX;       \
	MOVQ  $0, AX;       \
	ADOXQ AX, BP

// MONT_ROUND(off): t += x·y[off/8]. The ADOX chain adds low words into
// t, the ADCX chain adds the previous product's high word one limb up;
// both final carries fold into the new accumulator BP.
#define MONT_ROUND(off) \
	XORQ  AX, AX;       \
	MOVQ  off(R11), DX; \
	MULXQ DI, AX, BP;   \
	ADOXQ AX, R14;      \
	ADCXQ BP, R13;      \
	MULXQ R8, AX, BP;   \
	ADOXQ AX, R13;      \
	ADCXQ BP, CX;       \
	MULXQ R9, AX, BP;   \
	ADOXQ AX, CX;       \
	ADCXQ BP, BX;       \
	MULXQ R10, AX, BP;  \
	ADOXQ AX, BX;       \
	MOVQ  $0, AX;       \
	ADCXQ AX, BP;       \
	ADOXQ AX, BP

// MONT_REDUCE_STEP(F): m = t0·qInvNeg; t = (t + m·q)/2⁶⁴, folding the
// round's overflow accumulator BP into the new top limb. The first
// ADCX materializes only the carry of t0 + lo(m·q0) (the low word is
// zero by construction of m).
#define MONT_REDUCE_STEP(F) \
	MOVQ  F+32(SB), DX;     \
	IMULQ R14, DX;          \
	XORQ  AX, AX;           \
	MULXQ F+0(SB), AX, R12; \
	ADCXQ R14, AX;          \
	MOVQ  R12, R14;         \
	ADCXQ R13, R14;         \
	MULXQ F+8(SB), AX, R13; \
	ADOXQ AX, R14;          \
	ADCXQ CX, R13;          \
	MULXQ F+16(SB), AX, CX; \
	ADOXQ AX, R13;          \
	ADCXQ BX, CX;           \
	MULXQ F+24(SB), AX, BX; \
	ADOXQ AX, CX;           \
	MOVQ  $0, AX;           \
	ADCXQ AX, BX;           \
	ADOXQ BP, BX

// MONT_MUL_BODY(F): full 4-round Montgomery product of (DI,R8,R9,R10)
// by the 4 limbs at (R11), conditionally subtracted result in
// R14,R13,CX,BX. Reuses DI,R8,R9,R10 as reduction scratch — the x limbs
// are dead after the last round.
#define MONT_MUL_BODY(F) \
	MONT_ROUND0;         \
	MONT_REDUCE_STEP(F); \
	MONT_ROUND(8);       \
	MONT_REDUCE_STEP(F); \
	MONT_ROUND(16);      \
	MONT_REDUCE_STEP(F); \
	MONT_ROUND(24);      \
	MONT_REDUCE_STEP(F); \
	MOVQ    R14, DI;     \
	MOVQ    R13, R8;     \
	MOVQ    CX, R9;      \
	MOVQ    BX, R10;     \
	SUBQ    F+0(SB), R14;  \
	SBBQ    F+8(SB), R13;  \
	SBBQ    F+16(SB), CX;  \
	SBBQ    F+24(SB), BX;  \
	CMOVQCS DI, R14;     \
	CMOVQCS R8, R13;     \
	CMOVQCS R9, CX;      \
	CMOVQCS R10, BX

// MUL(F) is the body of func mul(z, x, y *[4]uint64).
//
// The 8-byte frame exists only so the assembler's prologue saves and
// restores BP, which the multiply body claims as the overflow
// accumulator.
#define MUL(F) \
	NO_LOCAL_POINTERS;     \
	MOVQ x+8(FP), SI;      \
	MOVQ y+16(FP), R11;    \
	MOVQ 0(SI), DI;        \
	MOVQ 8(SI), R8;        \
	MOVQ 16(SI), R9;       \
	MOVQ 24(SI), R10;      \
	MONT_MUL_BODY(F);      \
	MOVQ z+0(FP), AX;      \
	MOVQ R14, 0(AX);       \
	MOVQ R13, 8(AX);       \
	MOVQ CX, 16(AX);       \
	MOVQ BX, 24(AX);       \
	RET

// MUL_VEC(F) is the body of func mulVec(res, a, b *[4]uint64, n uint64):
// element-wise products over contiguous arrays. Every general register
// is claimed by the multiply body (R15 stays free for the
// dynamic-linking base register), so the loop counter decrements in its
// argument slot and the output cursor lives in a NO_LOCAL_POINTERS
// stack slot — it steps one past the final element, which a
// pointer-typed slot must never hold.
#define MUL_VEC(F) \
	NO_LOCAL_POINTERS;     \
	MOVQ  a+8(FP), SI;     \
	MOVQ  b+16(FP), R11;   \
	MOVQ  res+0(FP), AX;   \
	MOVQ  AX, 0(SP);       \
	MOVQ  n+24(FP), AX;    \
	TESTQ AX, AX;          \
	JZ    vecdone;         \
vecloop:                   \
	MOVQ  0(SI), DI;       \
	MOVQ  8(SI), R8;       \
	MOVQ  16(SI), R9;      \
	MOVQ  24(SI), R10;     \
	MONT_MUL_BODY(F);      \
	MOVQ  0(SP), AX;       \
	MOVQ  R14, 0(AX);      \
	MOVQ  R13, 8(AX);      \
	MOVQ  CX, 16(AX);      \
	MOVQ  BX, 24(AX);      \
	ADDQ  $32, AX;         \
	MOVQ  AX, 0(SP);       \
	ADDQ  $32, SI;         \
	ADDQ  $32, R11;        \
	DECQ  n+24(FP);        \
	JNZ   vecloop;         \
vecdone:                   \
	RET

// func mulAdxFp(z, x, y *[4]uint64)
TEXT ·mulAdxFp(SB), NOSPLIT, $8-24
	MUL(·Fp)

// func mulAdxFr(z, x, y *[4]uint64)
TEXT ·mulAdxFr(SB), NOSPLIT, $8-24
	MUL(·Fr)

// func mulVecAdxFp(res, a, b *[4]uint64, n uint64)
TEXT ·mulVecAdxFp(SB), NOSPLIT, $16-32
	MUL_VEC(·Fp)

// func mulVecAdxFr(res, a, b *[4]uint64, n uint64)
TEXT ·mulVecAdxFr(SB), NOSPLIT, $16-32
	MUL_VEC(·Fr)

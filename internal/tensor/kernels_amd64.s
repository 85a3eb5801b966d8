//go:build amd64 && !purego

#include "textflag.h"

// AVX2 micro-kernels for matmul.go (f64, four columns per register) and
// f32.go (f32, eight), and AVX-512 tiles of the f64 fold and a·bᵀ (eight
// columns per register) and of the f32 fold and a·bᵀ (sixteen columns, or
// eight columns' even and odd sums, per register). The rule they all keep: lanes run across outputs, every output
// combines its terms in the expression tree of the Go loop it replaces, a
// VMULPD/VMULPS and then a VADDPD/VADDPS per term, never VFMADD, never a
// horizontal sum. Each lane therefore performs exactly the scalar operations
// of the Go loops, in the same order and operand order, and the results agree
// bit for bit.

// func cpuHasAVX2() bool
TEXT ·cpuHasAVX2(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)
	XORL AX, AX
	CPUID
	CMPL AX, $7
	JLT  done
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX // OSXSAVE | AVX
	CMPL CX, $0x18000000
	JNE  done
	XORL CX, CX
	XGETBV
	ANDL $6, AX // XCR0: the OS saves XMM and YMM state
	CMPL AX, $6
	JNE  done
	MOVL $7, AX
	XORL CX, CX
	CPUID
	SHRL $5, BX // leaf 7 EBX bit 5: AVX2
	ANDL $1, BX
	MOVB BX, ret+0(FP)
done:
	RET

// func cpuHasAVX512() bool, called only where cpuHasAVX2 holds: XGETBV and
// leaf 7 exist.
TEXT ·cpuHasAVX512(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)
	XORL CX, CX
	XGETBV
	ANDL $0xe6, AX // XCR0: the OS saves XMM, YMM, opmask and all of ZMM0-31
	CMPL AX, $0xe6
	JNE  no512
	MOVL $7, AX
	XORL CX, CX
	CPUID
	SHRL $16, BX // leaf 7 EBX bit 16: AVX-512F
	ANDL $1, BX
	MOVB BX, ret+0(FP)
no512:
	RET

// FOLD4 folds one quad of terms onto four columns at byte offset AX:
// acc = (((d + v0·b0) + v1·b1) + v2·b2) + v3·b3 with d in acc on entry. Each
// product takes b and each add the sum as first operand, as the compiled Go
// loops do: that operand's payload wins when both are NaN.
#define FOLD4(acc, tmp, off) \
	VMOVUPD off(R11)(AX*1), tmp; \
	VMULPD Y0, tmp, tmp; \
	VADDPD tmp, acc, acc; \
	VMOVUPD off(R12)(AX*1), tmp; \
	VMULPD Y1, tmp, tmp; \
	VADDPD tmp, acc, acc; \
	VMOVUPD off(R13)(AX*1), tmp; \
	VMULPD Y2, tmp, tmp; \
	VADDPD tmp, acc, acc; \
	VMOVUPD off(R14)(AX*1), tmp; \
	VMULPD Y3, tmp, tmp; \
	VADDPD tmp, acc, acc

// func foldTermsAVX2(d, b *float64, ps *int, vs *float64, terms, cols, n int)
TEXT ·foldTermsAVX2(SB), NOSPLIT, $0-56
	MOVQ d+0(FP), DI
	MOVQ b+8(FP), SI
	MOVQ ps+16(FP), R8
	MOVQ vs+24(FP), R9
	MOVQ terms+32(FP), CX
	MOVQ cols+40(FP), DX
	MOVQ n+48(FP), R10
	SHLQ $3, R10 // bytes per b row
	SHLQ $3, DX  // bytes per pass over d

quad:
	CMPQ CX, $4
	JLT  single
	MOVQ 0(R8), R11
	MOVQ 8(R8), R12
	MOVQ 16(R8), R13
	MOVQ 24(R8), R14
	IMULQ R10, R11
	IMULQ R10, R12
	IMULQ R10, R13
	IMULQ R10, R14
	ADDQ SI, R11
	ADDQ SI, R12
	ADDQ SI, R13
	ADDQ SI, R14
	VBROADCASTSD 0(R9), Y0
	VBROADCASTSD 8(R9), Y1
	VBROADCASTSD 16(R9), Y2
	VBROADCASTSD 24(R9), Y3
	XORQ AX, AX
	MOVQ DX, BX
	SUBQ $64, BX // last offset at which eight columns remain
	JLT  quad4

quad8:
	VMOVUPD 0(DI)(AX*1), Y4
	VMOVUPD 32(DI)(AX*1), Y6
	FOLD4(Y4, Y5, 0)
	FOLD4(Y6, Y7, 32)
	VMOVUPD Y4, 0(DI)(AX*1)
	VMOVUPD Y6, 32(DI)(AX*1)
	ADDQ $64, AX
	CMPQ AX, BX
	JLE  quad8

quad4:
	CMPQ AX, DX
	JGE  quadnext
	VMOVUPD 0(DI)(AX*1), Y4
	FOLD4(Y4, Y5, 0)
	VMOVUPD Y4, 0(DI)(AX*1)

quadnext:
	ADDQ $32, R8
	ADDQ $32, R9
	SUBQ $4, CX
	JMP  quad

single:
	TESTQ CX, CX
	JZ    folded
	MOVQ  0(R8), R11
	IMULQ R10, R11
	ADDQ  SI, R11
	VBROADCASTSD 0(R9), Y0
	XORQ  AX, AX

single4:
	VMOVUPD 0(DI)(AX*1), Y4
	VMOVUPD 0(R11)(AX*1), Y5
	VMULPD  Y0, Y5, Y5
	VADDPD  Y5, Y4, Y4
	VMOVUPD Y4, 0(DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, DX
	JLT     single4
	ADDQ    $8, R8
	ADDQ    $8, R9
	DECQ    CX
	JMP     single

folded:
	VZEROUPPER
	RET

// TILE4 adds one term to eight columns of four rows in FOLD4's operand order:
// acc_r = acc_r + v_r·bcol, v_r broadcast in Z8..Z11.
#define TILE4(bcol, a0, a1, a2, a3) \
	VMULPD Z8, bcol, Z16; \
	VMULPD Z9, bcol, Z17; \
	VMULPD Z10, bcol, Z18; \
	VMULPD Z11, bcol, Z19; \
	VADDPD Z16, a0, a0; \
	VADDPD Z17, a1, a1; \
	VADDPD Z18, a2, a2; \
	VADDPD Z19, a3, a3

// LOAD4 and STORE4 move the lanes of mask k of eight columns of the four d
// rows at byte offset off; LOAD4 zeroes the other lanes.
#define LOAD4(off, k, a0, a1, a2, a3) \
	VMOVUPD.Z off(DI), k, a0; \
	VMOVUPD.Z off(DI)(R11*1), k, a1; \
	VMOVUPD.Z off(DI)(R11*2), k, a2; \
	VMOVUPD.Z off(DI)(R14*1), k, a3

#define STORE4(off, k, a0, a1, a2, a3) \
	VMOVUPD a0, k, off(DI); \
	VMOVUPD a1, k, off(DI)(R11*1); \
	VMOVUPD a2, k, off(DI)(R11*2); \
	VMOVUPD a3, k, off(DI)(R14*1)

// func foldTile4AVX512(d, b, v *float64, vrow, vterm, terms, n int)
//
// Z0..Z7 hold a 4-row × 16-column block of d over the whole reduction, so
// each b row is loaded once for the four rows. K1 and K2 mask the block's
// halves to the columns before n: no cell past a row is loaded or stored.
TEXT ·foldTile4AVX512(SB), NOSPLIT, $0-56
	MOVQ d+0(FP), DI
	MOVQ b+8(FP), SI
	MOVQ v+16(FP), R9
	MOVQ vrow+24(FP), R10
	MOVQ vterm+32(FP), R8
	MOVQ terms+40(FP), BX
	MOVQ n+48(FP), DX       // columns left
	SHLQ $3, R10            // bytes from one row's values to the next row's
	SHLQ $3, R8             // bytes from one term's values to the next term's
	LEAQ (R10)(R10*2), R15  // three value rows
	LEAQ (DX*8), R11        // bytes per b / d row
	LEAQ (R11)(R11*2), R14  // three d rows

tile:
	MOVQ $16, CX
	CMPQ DX, CX
	CMOVQLT DX, CX
	MOVL $-1, AX
	SHLL CX, AX
	NOTL AX                 // the block's min(DX, 16) live columns
	KMOVW AX, K1
	SHRL $8, AX
	KMOVW AX, K2
	LOAD4(0, K1, Z0, Z1, Z2, Z3)
	LOAD4(64, K2, Z4, Z5, Z6, Z7)
	MOVQ SI, R12
	MOVQ R9, R13
	MOVQ BX, AX

term:
	VMOVUPD.Z (R12), K1, Z12
	VMOVUPD.Z 64(R12), K2, Z13
	VBROADCASTSD (R13), Z8
	VBROADCASTSD (R13)(R10*1), Z9
	VBROADCASTSD (R13)(R10*2), Z10
	VBROADCASTSD (R13)(R15*1), Z11
	TILE4(Z12, Z0, Z1, Z2, Z3)
	TILE4(Z13, Z4, Z5, Z6, Z7)
	ADDQ R11, R12
	ADDQ R8, R13
	DECQ AX
	JNZ  term
	STORE4(0, K1, Z0, Z1, Z2, Z3)
	STORE4(64, K2, Z4, Z5, Z6, Z7)
	ADDQ $128, DI
	ADDQ $128, SI
	SUBQ $16, DX
	JG   tile
	VZEROUPPER
	RET

// ROWS4 adds a[r,p]·bcol onto the running sums of four rows: base points at
// a[r0,p0], off is the byte offset of p within the block of four, and R8 /
// R11 hold one and three row strides.
#define ROWS4(base, off, bcol, s0, s1, s2, s3) \
	VBROADCASTSD off(base), Y12; \
	VBROADCASTSD off(base)(R8*1), Y13; \
	VBROADCASTSD off(base)(R8*2), Y14; \
	VBROADCASTSD off(base)(R11*1), Y15; \
	VMULPD bcol, Y12, Y12; \
	VMULPD bcol, Y13, Y13; \
	VMULPD bcol, Y14, Y14; \
	VMULPD bcol, Y15, Y15; \
	VADDPD Y12, s0, s0; \
	VADDPD Y13, s1, s1; \
	VADDPD Y14, s2, s2; \
	VADDPD Y15, s3, s3

// func transBTilesAVX2(dst, a, b *float64, k4, k, n, tiles int)
TEXT ·transBTilesAVX2(SB), NOSPLIT, $0-56
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), BX
	MOVQ k4+24(FP), R15
	MOVQ k+32(FP), R8
	MOVQ n+40(FP), R9
	MOVQ tiles+48(FP), DX
	SHLQ $3, R15          // bytes of a row the vector loop consumes
	SHLQ $3, R8           // bytes per a / b row
	SHLQ $3, R9           // bytes per dst row
	LEAQ (R8)(R8*2), R11  // three a / b rows
	LEAQ (R9)(R9*2), R13  // three dst rows
	LEAQ (SI)(R8*4), R12  // a rows 4..7

tile:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	MOVQ   R15, CX
	TESTQ  CX, CX
	JZ     store

block:
	// Four b rows × four p, transposed so each register holds one p across
	// the tile's four output columns.
	VMOVUPD (BX), Y8
	VMOVUPD (BX)(R8*1), Y9
	VMOVUPD (BX)(R8*2), Y10
	VMOVUPD (BX)(R11*1), Y11
	VUNPCKLPD Y9, Y8, Y12
	VUNPCKHPD Y9, Y8, Y13
	VUNPCKLPD Y11, Y10, Y14
	VUNPCKHPD Y11, Y10, Y15
	VPERM2F128 $0x20, Y14, Y12, Y8
	VPERM2F128 $0x20, Y15, Y13, Y9
	VPERM2F128 $0x31, Y14, Y12, Y10
	VPERM2F128 $0x31, Y15, Y13, Y11
	ROWS4(SI, 0, Y8, Y0, Y1, Y2, Y3)
	ROWS4(R12, 0, Y8, Y4, Y5, Y6, Y7)
	ROWS4(SI, 8, Y9, Y0, Y1, Y2, Y3)
	ROWS4(R12, 8, Y9, Y4, Y5, Y6, Y7)
	ROWS4(SI, 16, Y10, Y0, Y1, Y2, Y3)
	ROWS4(R12, 16, Y10, Y4, Y5, Y6, Y7)
	ROWS4(SI, 24, Y11, Y0, Y1, Y2, Y3)
	ROWS4(R12, 24, Y11, Y4, Y5, Y6, Y7)
	ADDQ $32, BX
	ADDQ $32, SI
	ADDQ $32, R12
	SUBQ $32, CX
	JNZ  block

store:
	LEAQ    (DI)(R9*4), AX
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, (DI)(R9*1)
	VMOVUPD Y2, (DI)(R9*2)
	VMOVUPD Y3, (DI)(R13*1)
	VMOVUPD Y4, (AX)
	VMOVUPD Y5, (AX)(R9*1)
	VMOVUPD Y6, (AX)(R9*2)
	VMOVUPD Y7, (AX)(R13*1)
	ADDQ $32, DI
	SUBQ R15, SI          // back to p = 0
	SUBQ R15, R12
	SUBQ R15, BX
	LEAQ (BX)(R8*4), BX   // next four b rows
	DECQ DX
	JNZ  tile
	VZEROUPPER
	RET

// TRANSPOSE8 turns Z8..Z15, eight rows of eight consecutive doubles, into
// Z16..Z23, one column of them each: VUNPCK{L,H}PD pairs rows, then two
// VSHUFF64X2 stages move 128-bit lanes (0x88 picks lanes 0 and 2 of each
// source, 0xDD lanes 1 and 3).
#define TRANSPOSE8 \
	VUNPCKLPD Z9, Z8, Z16; \
	VUNPCKHPD Z9, Z8, Z17; \
	VUNPCKLPD Z11, Z10, Z18; \
	VUNPCKHPD Z11, Z10, Z19; \
	VUNPCKLPD Z13, Z12, Z20; \
	VUNPCKHPD Z13, Z12, Z21; \
	VUNPCKLPD Z15, Z14, Z22; \
	VUNPCKHPD Z15, Z14, Z23; \
	VSHUFF64X2 $0x88, Z18, Z16, Z8; \
	VSHUFF64X2 $0xDD, Z18, Z16, Z9; \
	VSHUFF64X2 $0x88, Z19, Z17, Z10; \
	VSHUFF64X2 $0xDD, Z19, Z17, Z11; \
	VSHUFF64X2 $0x88, Z22, Z20, Z12; \
	VSHUFF64X2 $0xDD, Z22, Z20, Z13; \
	VSHUFF64X2 $0x88, Z23, Z21, Z14; \
	VSHUFF64X2 $0xDD, Z23, Z21, Z15; \
	VSHUFF64X2 $0x88, Z12, Z8, Z16; \
	VSHUFF64X2 $0x88, Z14, Z10, Z17; \
	VSHUFF64X2 $0x88, Z13, Z9, Z18; \
	VSHUFF64X2 $0x88, Z15, Z11, Z19; \
	VSHUFF64X2 $0xDD, Z12, Z8, Z20; \
	VSHUFF64X2 $0xDD, Z14, Z10, Z21; \
	VSHUFF64X2 $0xDD, Z13, Z9, Z22; \
	VSHUFF64X2 $0xDD, Z15, Z11, Z23

// ROWS8 adds a[r,p]·bcol onto the running sums Z0..Z7 of the tile's eight
// rows: off is the byte offset of p within the block of eight, SI and R12
// point at a rows 0 and 4, and R8 / R11 hold one and three row strides. Each
// product takes a and each add the sum as first operand, as ROWS4 does.
#define ROWS8(off, bcol) \
	VBROADCASTSD off(SI), Z24; \
	VBROADCASTSD off(SI)(R8*1), Z25; \
	VBROADCASTSD off(SI)(R8*2), Z26; \
	VBROADCASTSD off(SI)(R11*1), Z27; \
	VBROADCASTSD off(R12), Z28; \
	VBROADCASTSD off(R12)(R8*1), Z29; \
	VBROADCASTSD off(R12)(R8*2), Z30; \
	VBROADCASTSD off(R12)(R11*1), Z31; \
	VMULPD bcol, Z24, Z24; \
	VMULPD bcol, Z25, Z25; \
	VMULPD bcol, Z26, Z26; \
	VMULPD bcol, Z27, Z27; \
	VMULPD bcol, Z28, Z28; \
	VMULPD bcol, Z29, Z29; \
	VMULPD bcol, Z30, Z30; \
	VMULPD bcol, Z31, Z31; \
	VADDPD Z24, Z0, Z0; \
	VADDPD Z25, Z1, Z1; \
	VADDPD Z26, Z2, Z2; \
	VADDPD Z27, Z3, Z3; \
	VADDPD Z28, Z4, Z4; \
	VADDPD Z29, Z5, Z5; \
	VADDPD Z30, Z6, Z6; \
	VADDPD Z31, Z7, Z7

// func transBTilesAVX512(dst, a, b *float64, k8, k, n, tiles int)
//
// transBTilesAVX2 on ZMM registers: a tile is 8 rows × 8 columns, Z0..Z7 its
// rows' sums. Per eight p, the eight b rows of the tile are transposed in
// registers (TRANSPOSE8), so Z16..Z23 hold p+0..p+7 each across the tile's
// columns.
TEXT ·transBTilesAVX512(SB), NOSPLIT, $0-56
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), BX
	MOVQ k8+24(FP), R15
	MOVQ k+32(FP), R8
	MOVQ n+40(FP), R9
	MOVQ tiles+48(FP), DX
	SHLQ $3, R15          // bytes of a row the vector loop consumes
	SHLQ $3, R8           // bytes per a / b row
	SHLQ $3, R9           // bytes per dst row
	LEAQ (R8)(R8*2), R11  // three a / b rows
	LEAQ (R9)(R9*2), R13  // three dst rows
	LEAQ (SI)(R8*4), R12  // a rows 4..7

tile512:
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	LEAQ  (BX)(R8*4), R10 // b rows 4..7
	MOVQ  R15, CX
	TESTQ CX, CX
	JZ    store512

block512:
	VMOVUPD (BX), Z8
	VMOVUPD (BX)(R8*1), Z9
	VMOVUPD (BX)(R8*2), Z10
	VMOVUPD (BX)(R11*1), Z11
	VMOVUPD (R10), Z12
	VMOVUPD (R10)(R8*1), Z13
	VMOVUPD (R10)(R8*2), Z14
	VMOVUPD (R10)(R11*1), Z15
	TRANSPOSE8
	ROWS8(0, Z16)
	ROWS8(8, Z17)
	ROWS8(16, Z18)
	ROWS8(24, Z19)
	ROWS8(32, Z20)
	ROWS8(40, Z21)
	ROWS8(48, Z22)
	ROWS8(56, Z23)
	ADDQ $64, BX
	ADDQ $64, R10
	ADDQ $64, SI
	ADDQ $64, R12
	SUBQ $64, CX
	JNZ  block512

store512:
	LEAQ    (DI)(R9*4), AX
	VMOVUPD Z0, (DI)
	VMOVUPD Z1, (DI)(R9*1)
	VMOVUPD Z2, (DI)(R9*2)
	VMOVUPD Z3, (DI)(R13*1)
	VMOVUPD Z4, (AX)
	VMOVUPD Z5, (AX)(R9*1)
	VMOVUPD Z6, (AX)(R9*2)
	VMOVUPD Z7, (AX)(R13*1)
	ADDQ $64, DI
	SUBQ R15, SI          // back to p = 0
	SUBQ R15, R12
	SUBQ R15, BX
	LEAQ (BX)(R8*8), BX   // next eight b rows
	DECQ DX
	JNZ  tile512
	VZEROUPPER
	RET

// func anyZeroAVX2(a *float64, n int) bool
//
// VCMPPD predicate 0 is equal, ordered, quiet: ±0 compare equal to +0 and a
// NaN compares unequal, the Go a[i] == 0. VTESTPD sets ZF unless some lane of
// the compare mask is set.
TEXT ·anyZeroAVX2(SB), NOSPLIT, $0-17
	MOVQ a+0(FP), SI
	MOVQ n+8(FP), CX
	SHLQ $3, CX
	VXORPD Y0, Y0, Y0
	XORQ AX, AX
	MOVQ CX, DX
	SUBQ $128, DX         // last offset at which sixteen elements remain
	JLT  zero4

zero16:
	VCMPPD  $0, (SI)(AX*1), Y0, Y1
	VCMPPD  $0, 32(SI)(AX*1), Y0, Y2
	VCMPPD  $0, 64(SI)(AX*1), Y0, Y3
	VCMPPD  $0, 96(SI)(AX*1), Y0, Y4
	VORPD   Y2, Y1, Y1
	VORPD   Y4, Y3, Y3
	VORPD   Y3, Y1, Y1
	VTESTPD Y1, Y1
	JNZ     zerofound
	ADDQ    $128, AX
	CMPQ    AX, DX
	JLE     zero16

zero4:
	CMPQ    AX, CX
	JGE     zeronone
	VCMPPD  $0, (SI)(AX*1), Y0, Y1
	VTESTPD Y1, Y1
	JNZ     zerofound
	ADDQ    $32, AX
	JMP     zero4

zeronone:
	MOVB $0, ret+16(FP)
	VZEROUPPER
	RET

zerofound:
	MOVB $1, ret+16(FP)
	VZEROUPPER
	RET

// QUAD32 folds four terms onto eight columns at byte offset off of the b rows
// at R12: acc = ((v1·b1 + v0·b0) + (v3·b3 + v2·b2)) + d with d in acc on
// entry, the pairing of the f32 lane's Go fold in the operand order its
// compiled loop uses — each product takes b first, each pair its second
// product, the last add the quad's sum — so NaN payloads come out alike.
#define QUAD32(acc, t, u, w, off) \
	VMOVUPS off(R12), t; \
	VMULPS Y0, t, t; \
	VMOVUPS off(R12)(R11*1), u; \
	VMULPS Y1, u, u; \
	VADDPS t, u, t; \
	VMOVUPS off(R12)(R11*2), u; \
	VMULPS Y2, u, u; \
	VMOVUPS off(R12)(R14*1), w; \
	VMULPS Y3, w, w; \
	VADDPS u, w, u; \
	VADDPS u, t, t; \
	VADDPS acc, t, acc

// ONE32 folds a single term in the same operand order: acc = b0·v0 + d.
#define ONE32(acc, t, off) \
	VMOVUPS off(R12), t; \
	VMULPS Y0, t, t; \
	VADDPS acc, t, acc

// func fold32AVX2(d, b, v *float32, rows, vrow, vterm, terms, cols, n int)
//
// Per row the columns go in blocks of 32 and then 8 whose running sums stay
// in registers over the whole reduction, so d is loaded and stored once.
TEXT ·fold32AVX2(SB), NOSPLIT, $0-72
	MOVQ d+0(FP), DI
	MOVQ v+16(FP), R9
	MOVQ rows+24(FP), BX
	MOVQ vrow+32(FP), R8
	MOVQ vterm+40(FP), R10
	MOVQ terms+48(FP), CX
	MOVQ n+64(FP), R11
	SHLQ $2, R8            // bytes from one row's values to the next row's
	SHLQ $2, R10           // bytes from one term's value to the next term's
	SHLQ $2, R11           // bytes per b / d row
	LEAQ (R11)(R11*2), R14 // three b rows
	LEAQ (R10)(R10*2), R15 // three value steps

row:
	MOVQ b+8(FP), SI
	MOVQ cols+56(FP), DX

block32:
	CMPQ DX, $32
	JLT  block8
	VMOVUPS 0(DI), Y4
	VMOVUPS 32(DI), Y5
	VMOVUPS 64(DI), Y6
	VMOVUPS 96(DI), Y7
	MOVQ SI, R12
	MOVQ R9, R13
	MOVQ CX, AX

quad32:
	CMPQ AX, $4
	JLT  one32
	VBROADCASTSS (R13), Y0
	VBROADCASTSS (R13)(R10*1), Y1
	VBROADCASTSS (R13)(R10*2), Y2
	VBROADCASTSS (R13)(R15*1), Y3
	QUAD32(Y4, Y8, Y9, Y10, 0)
	QUAD32(Y5, Y11, Y12, Y13, 32)
	QUAD32(Y6, Y8, Y9, Y10, 64)
	QUAD32(Y7, Y11, Y12, Y13, 96)
	LEAQ (R12)(R11*4), R12
	LEAQ (R13)(R10*4), R13
	SUBQ $4, AX
	JMP  quad32

one32:
	TESTQ AX, AX
	JZ    store32
	VBROADCASTSS (R13), Y0
	ONE32(Y4, Y8, 0)
	ONE32(Y5, Y9, 32)
	ONE32(Y6, Y10, 64)
	ONE32(Y7, Y11, 96)
	ADDQ R11, R12
	ADDQ R10, R13
	DECQ AX
	JMP  one32

store32:
	VMOVUPS Y4, 0(DI)
	VMOVUPS Y5, 32(DI)
	VMOVUPS Y6, 64(DI)
	VMOVUPS Y7, 96(DI)
	ADDQ $128, DI
	ADDQ $128, SI
	SUBQ $32, DX
	JMP  block32

block8:
	TESTQ DX, DX
	JZ    nextrow
	VMOVUPS (DI), Y4
	MOVQ SI, R12
	MOVQ R9, R13
	MOVQ CX, AX

quad8:
	CMPQ AX, $4
	JLT  one8
	VBROADCASTSS (R13), Y0
	VBROADCASTSS (R13)(R10*1), Y1
	VBROADCASTSS (R13)(R10*2), Y2
	VBROADCASTSS (R13)(R15*1), Y3
	QUAD32(Y4, Y8, Y9, Y10, 0)
	LEAQ (R12)(R11*4), R12
	LEAQ (R13)(R10*4), R13
	SUBQ $4, AX
	JMP  quad8

one8:
	TESTQ AX, AX
	JZ    store8
	VBROADCASTSS (R13), Y0
	ONE32(Y4, Y8, 0)
	ADDQ R11, R12
	ADDQ R10, R13
	DECQ AX
	JMP  one8

store8:
	VMOVUPS Y4, (DI)
	ADDQ $32, DI
	ADDQ $32, SI
	SUBQ $8, DX
	JMP  block8

nextrow:
	MOVQ cols+56(FP), DX
	SHLQ $2, DX
	SUBQ DX, DI
	ADDQ R11, DI // d's next row
	ADDQ R8, R9  // the next row's values
	DECQ BX
	JNZ  row
	VZEROUPPER
	RET

// tailmask32 holds the VMASKMOVPS masks of the last 3, 2 and 1 terms of a
// reduction at byte offsets 0, 4 and 8.
DATA tailmask32<>+0(SB)/4, $0xffffffff
DATA tailmask32<>+4(SB)/4, $0xffffffff
DATA tailmask32<>+8(SB)/4, $0xffffffff
DATA tailmask32<>+12(SB)/4, $0
DATA tailmask32<>+16(SB)/4, $0
DATA tailmask32<>+20(SB)/4, $0
GLOBL tailmask32<>(SB), RODATA|NOPTR, $24

// TRANSPOSE32 turns Y8..Y11, each four consecutive p of b row c in its low
// half and of row c+4 in its high half, into one p across the tile's eight
// output columns per register.
#define TRANSPOSE32 \
	VUNPCKLPS Y9, Y8, Y12; \
	VUNPCKHPS Y9, Y8, Y13; \
	VUNPCKLPS Y11, Y10, Y14; \
	VUNPCKHPS Y11, Y10, Y15; \
	VUNPCKLPD Y14, Y12, Y8; \
	VUNPCKHPD Y14, Y12, Y9; \
	VUNPCKLPD Y15, Y13, Y10; \
	VUNPCKHPD Y15, Y13, Y11

// ROWS4S adds a[r,p]·bcol onto one partial sum of each of four rows: SI points
// at a[r0,p0], off is the byte offset of p, R8 / R11 are one and three rows.
#define ROWS4S(off, bcol, s0, s1, s2, s3) \
	VBROADCASTSS off(SI), Y12; \
	VBROADCASTSS off(SI)(R8*1), Y13; \
	VBROADCASTSS off(SI)(R8*2), Y14; \
	VBROADCASTSS off(SI)(R11*1), Y15; \
	VMULPS bcol, Y12, Y12; \
	VMULPS bcol, Y13, Y13; \
	VMULPS bcol, Y14, Y14; \
	VMULPS bcol, Y15, Y15; \
	VADDPS Y12, s0, s0; \
	VADDPS Y13, s1, s1; \
	VADDPS Y14, s2, s2; \
	VADDPS Y15, s3, s3

// func transB32TilesAVX2(dst, a, b *float32, rowTiles, colTiles, k, n int)
//
// One tile is 4 rows × 8 columns; Y0..Y3 hold its even-p partial sums and
// Y4..Y7 its odd-p ones.
TEXT ·transB32TilesAVX2(SB), NOSPLIT, $0-56
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ rowTiles+24(FP), R10
	MOVQ k+40(FP), R8
	MOVQ n+48(FP), R9
	MOVQ R8, AX
	ANDQ $3, AX
	NEGQ AX
	LEAQ 12(AX*4), AX      // tailmask32 offset of the k%4 last terms; 12 when there are none
	SHLQ $2, R8            // bytes per a / b row
	SHLQ $2, R9            // bytes per dst row
	MOVQ R8, R15
	ANDQ $-16, R15         // bytes of a row the four-term blocks consume
	LEAQ (R8)(R8*2), R11   // three a / b rows
	LEAQ (R9)(R9*2), R13   // three dst rows

rowtile:
	MOVQ b+16(FP), BX
	MOVQ colTiles+32(FP), DX

tile:
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	LEAQ  (BX)(R8*4), R12  // b rows 4..7
	MOVQ  R15, CX
	TESTQ CX, CX
	JZ    tail

block:
	VMOVUPS (BX), X8
	VMOVUPS (BX)(R8*1), X9
	VMOVUPS (BX)(R8*2), X10
	VMOVUPS (BX)(R11*1), X11
	VINSERTF128 $1, (R12), Y8, Y8
	VINSERTF128 $1, (R12)(R8*1), Y9, Y9
	VINSERTF128 $1, (R12)(R8*2), Y10, Y10
	VINSERTF128 $1, (R12)(R11*1), Y11, Y11
	TRANSPOSE32
	ROWS4S(0, Y8, Y0, Y1, Y2, Y3)
	ROWS4S(4, Y9, Y4, Y5, Y6, Y7)
	ROWS4S(8, Y10, Y0, Y1, Y2, Y3)
	ROWS4S(12, Y11, Y4, Y5, Y6, Y7)
	ADDQ $16, BX
	ADDQ $16, R12
	ADDQ $16, SI
	SUBQ $16, CX
	JNZ  block

tail:
	CMPQ AX, $12
	JEQ  store
	// The k%4 last terms: masked loads read nothing past the end of a b row.
	LEAQ tailmask32<>(SB), CX
	VMOVDQU (CX)(AX*1), X12
	VMASKMOVPS (BX), X12, X8
	VMASKMOVPS (BX)(R8*1), X12, X9
	VMASKMOVPS (BX)(R8*2), X12, X10
	VMASKMOVPS (BX)(R11*1), X12, X11
	VMASKMOVPS (R12), X12, X13
	VMASKMOVPS (R12)(R8*1), X12, X14
	VINSERTF128 $1, X13, Y8, Y8
	VINSERTF128 $1, X14, Y9, Y9
	VMASKMOVPS (R12)(R8*2), X12, X13
	VMASKMOVPS (R12)(R11*1), X12, X14
	VINSERTF128 $1, X13, Y10, Y10
	VINSERTF128 $1, X14, Y11, Y11
	TRANSPOSE32
	ROWS4S(0, Y8, Y0, Y1, Y2, Y3)
	CMPQ AX, $4
	JGT  store
	ROWS4S(4, Y9, Y4, Y5, Y6, Y7)
	TESTQ AX, AX
	JNZ  store
	ROWS4S(8, Y10, Y0, Y1, Y2, Y3)

store:
	VADDPS Y4, Y0, Y0
	VADDPS Y5, Y1, Y1
	VADDPS Y6, Y2, Y2
	VADDPS Y7, Y3, Y3
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, (DI)(R9*1)
	VMOVUPS Y2, (DI)(R9*2)
	VMOVUPS Y3, (DI)(R13*1)
	ADDQ $32, DI
	SUBQ R15, SI           // back to p = 0
	SUBQ R15, BX
	LEAQ (BX)(R8*8), BX    // next eight b rows
	DECQ DX
	JNZ  tile
	MOVQ colTiles+32(FP), DX
	SHLQ $5, DX
	SUBQ DX, DI
	LEAQ (DI)(R9*4), DI    // next four dst rows
	LEAQ (SI)(R8*4), SI    // next four a rows
	DECQ R10
	JNZ  rowtile
	VZEROUPPER
	RET

// CLAMP3 sets r1, r2, r3 to min(i, BX−1)·s for i = 1, 2, 3: the offsets of the
// rows of a four-row tile with BX ≥ 1 rows left, a last tile of fewer rows
// repeating its last row. AX is clobbered; s must not be AX.
#define CLAMP3(s, r1, r2, r3) \
	XORL    AX, AX; \
	MOVQ    s, r1; \
	LEAQ    (s)(s*1), r2; \
	LEAQ    (s)(s*2), r3; \
	CMPQ    BX, $3; \
	CMOVQLE r2, r3; \
	CMPQ    BX, $2; \
	CMOVQLE r1, r2; \
	CMOVQLE r1, r3; \
	CMPQ    BX, $1; \
	CMOVQLE AX, r1; \
	CMOVQLE AX, r2; \
	CMOVQLE AX, r3

// QUAD16 is QUAD32 on sixteen columns with the four b rows in registers and
// v0..v3 broadcast in Z16..Z19: acc = ((b1·v1 + b0·v0) + (b3·v3 + b2·v2)) + acc,
// in QUAD32's operand order.
#define QUAD16(acc, b0, b1, b2, b3, t, u, w) \
	VMULPS Z16, b0, t; \
	VMULPS Z17, b1, u; \
	VADDPS t, u, t; \
	VMULPS Z18, b2, u; \
	VMULPS Z19, b3, w; \
	VADDPS u, w, u; \
	VADDPS u, t, t; \
	VADDPS acc, t, acc

// QROW folds one quad into the two blocks of one tile row: CX points at the
// row's value of the quad's first term, R10 is one term step.
#define QROW(a0, a1) \
	VBROADCASTSS (CX), Z16; \
	VBROADCASTSS (CX)(R10*1), Z17; \
	VBROADCASTSS (CX)(R10*2), Z18; \
	LEAQ         (CX)(R10*2), CX; \
	VBROADCASTSS (CX)(R10*1), Z19; \
	QUAD16(a0, Z8, Z10, Z12, Z14, Z20, Z21, Z22); \
	QUAD16(a1, Z9, Z11, Z13, Z15, Z23, Z24, Z25)

// ONE16 folds one term, v0 broadcast in Z16, in ONE32's order:
// acc = b0·v0 + acc.
#define ONE16(acc, b0, t) \
	VMULPS Z16, b0, t; \
	VADDPS acc, t, acc

// func fold32AVX512(d, b, v *float32, rows, vrow, vterm, terms, n int)
//
// fold32AVX2 on ZMM registers, four rows at a time: Z0..Z7 hold a 4-row ×
// 32-column block of d over the whole reduction (row r in Z2r and Z2r+1), so
// each b row is loaded once for the four rows. K1 and K2 mask the block's
// halves to the columns before n, and a last tile of fewer than four rows
// repeats its last row (CLAMP3), which stores the same sums twice: every row
// and column is folded here, and no cell past the operands is loaded or
// stored.
TEXT ·fold32AVX512(SB), NOSPLIT, $0-64
	MOVQ d+0(FP), DI
	MOVQ v+16(FP), R9
	MOVQ rows+24(FP), BX   // rows left
	MOVQ vterm+40(FP), R10
	MOVQ n+56(FP), R11
	SHLQ $2, R10           // bytes from one term's value to the next term's
	SHLQ $2, R11           // bytes per b / d row

rowtile:
	MOVQ   vrow+32(FP), CX
	SHLQ   $2, CX
	CLAMP3(CX, R8, R14, R15) // the tile's value rows 1..3
	MOVQ   b+8(FP), SI
	MOVQ   n+56(FP), DX      // columns left

block:
	MOVQ    $32, CX
	CMPQ    DX, CX
	CMOVQLT DX, CX
	MOVQ    $-1, AX
	SHLQ    CX, AX
	NOTQ    AX               // the block's min(DX, 32) live columns
	KMOVW   AX, K1
	SHRQ    $16, AX
	KMOVW   AX, K2
	CLAMP3(R11, R12, R13, CX)
	VMOVUPS.Z (DI), K1, Z0
	VMOVUPS.Z 64(DI), K2, Z1
	VMOVUPS.Z (DI)(R12*1), K1, Z2
	VMOVUPS.Z 64(DI)(R12*1), K2, Z3
	VMOVUPS.Z (DI)(R13*1), K1, Z4
	VMOVUPS.Z 64(DI)(R13*1), K2, Z5
	VMOVUPS.Z (DI)(CX*1), K1, Z6
	VMOVUPS.Z 64(DI)(CX*1), K2, Z7
	MOVQ      SI, R12
	MOVQ R9, R13
	MOVQ terms+48(FP), AX

quad:
	CMPQ      AX, $4
	JLT       one
	VMOVUPS.Z (R12), K1, Z8
	VMOVUPS.Z 64(R12), K2, Z9
	VMOVUPS.Z (R12)(R11*1), K1, Z10
	VMOVUPS.Z 64(R12)(R11*1), K2, Z11
	LEAQ      (R12)(R11*2), R12
	VMOVUPS.Z (R12), K1, Z12
	VMOVUPS.Z 64(R12), K2, Z13
	VMOVUPS.Z (R12)(R11*1), K1, Z14
	VMOVUPS.Z 64(R12)(R11*1), K2, Z15
	LEAQ      (R12)(R11*2), R12
	MOVQ      R13, CX
	QROW(Z0, Z1)
	LEAQ      (R13)(R8*1), CX
	QROW(Z2, Z3)
	LEAQ      (R13)(R14*1), CX
	QROW(Z4, Z5)
	LEAQ      (R13)(R15*1), CX
	QROW(Z6, Z7)
	LEAQ      (R13)(R10*4), R13
	SUBQ      $4, AX
	JMP       quad

one:
	TESTQ        AX, AX
	JZ           store
	VMOVUPS.Z    (R12), K1, Z8
	VMOVUPS.Z    64(R12), K2, Z9
	VBROADCASTSS (R13), Z16
	ONE16(Z0, Z8, Z20)
	ONE16(Z1, Z9, Z23)
	VBROADCASTSS (R13)(R8*1), Z16
	ONE16(Z2, Z8, Z20)
	ONE16(Z3, Z9, Z23)
	VBROADCASTSS (R13)(R14*1), Z16
	ONE16(Z4, Z8, Z20)
	ONE16(Z5, Z9, Z23)
	VBROADCASTSS (R13)(R15*1), Z16
	ONE16(Z6, Z8, Z20)
	ONE16(Z7, Z9, Z23)
	ADDQ         R11, R12
	ADDQ         R10, R13
	DECQ         AX
	JMP          one

store:
	CLAMP3(R11, R12, R13, CX)
	VMOVUPS Z0, K1, (DI)
	VMOVUPS Z1, K2, 64(DI)
	VMOVUPS Z2, K1, (DI)(R12*1)
	VMOVUPS Z3, K2, 64(DI)(R12*1)
	VMOVUPS Z4, K1, (DI)(R13*1)
	VMOVUPS Z5, K2, 64(DI)(R13*1)
	VMOVUPS Z6, K1, (DI)(CX*1)
	VMOVUPS Z7, K2, 64(DI)(CX*1)
	ADDQ    $128, DI
	ADDQ    $128, SI
	SUBQ    $32, DX
	JG      block
	MOVQ    n+56(FP), AX
	ADDQ    $31, AX
	ANDQ    $-32, AX
	SHLQ    $2, AX
	SUBQ    AX, DI             // back to column 0
	LEAQ    (DI)(R11*4), DI    // d's next four rows
	MOVQ    vrow+32(FP), AX
	SHLQ    $4, AX
	ADDQ    AX, R9             // their values
	SUBQ    $4, BX
	JG      rowtile
	VZEROUPPER
	RET

// ROWS8S is ROWS8 on f32 pairs: the broadcast qword is a[r,p..p+1] and bcol
// holds b[c,p..p+1] in lanes 2c and 2c+1, so lane 2c takes an even-p term of
// column c and lane 2c+1 the odd-p one.
#define ROWS8S(off, bcol) \
	VBROADCASTSD off(SI), Z24; \
	VBROADCASTSD off(SI)(R8*1), Z25; \
	VBROADCASTSD off(SI)(R8*2), Z26; \
	VBROADCASTSD off(SI)(R11*1), Z27; \
	VBROADCASTSD off(R12), Z28; \
	VBROADCASTSD off(R12)(R8*1), Z29; \
	VBROADCASTSD off(R12)(R8*2), Z30; \
	VBROADCASTSD off(R12)(R11*1), Z31; \
	VMULPS bcol, Z24, Z24; \
	VMULPS bcol, Z25, Z25; \
	VMULPS bcol, Z26, Z26; \
	VMULPS bcol, Z27, Z27; \
	VMULPS bcol, Z28, Z28; \
	VMULPS bcol, Z29, Z29; \
	VMULPS bcol, Z30, Z30; \
	VMULPS bcol, Z31, Z31; \
	VADDPS Z24, Z0, Z0; \
	VADDPS Z25, Z1, Z1; \
	VADDPS Z26, Z2, Z2; \
	VADDPS Z27, Z3, Z3; \
	VADDPS Z28, Z4, Z4; \
	VADDPS Z29, Z5, Z5; \
	VADDPS Z30, Z6, Z6; \
	VADDPS Z31, Z7, Z7

// ROWS8ODD adds the odd last term of a reduction, at byte offset off, onto
// the even lanes alone: a[r,p] is broadcast as a single, and the adds are
// merge-masked by K2, so an odd lane gets no term the Go loop does not add.
#define ROWS8ODD(off, bcol) \
	VBROADCASTSS off(SI), Z24; \
	VBROADCASTSS off(SI)(R8*1), Z25; \
	VBROADCASTSS off(SI)(R8*2), Z26; \
	VBROADCASTSS off(SI)(R11*1), Z27; \
	VBROADCASTSS off(R12), Z28; \
	VBROADCASTSS off(R12)(R8*1), Z29; \
	VBROADCASTSS off(R12)(R8*2), Z30; \
	VBROADCASTSS off(R12)(R11*1), Z31; \
	VMULPS bcol, Z24, Z24; \
	VMULPS bcol, Z25, Z25; \
	VMULPS bcol, Z26, Z26; \
	VMULPS bcol, Z27, Z27; \
	VMULPS bcol, Z28, Z28; \
	VMULPS bcol, Z29, Z29; \
	VMULPS bcol, Z30, Z30; \
	VMULPS bcol, Z31, Z31; \
	VADDPS Z24, Z0, K2, Z0; \
	VADDPS Z25, Z1, K2, Z1; \
	VADDPS Z26, Z2, K2, Z2; \
	VADDPS Z27, Z3, K2, Z3; \
	VADDPS Z28, Z4, K2, Z4; \
	VADDPS Z29, Z5, K2, Z5; \
	VADDPS Z30, Z6, K2, Z6; \
	VADDPS Z31, Z7, K2, Z7

// TAILPAIR adds the pair of terms at byte offset off of the k%16 tail when CX
// (the tail terms left) is at least two, and jumps to odd when one is left.
#define TAILPAIR(off, bcol, odd) \
	CMPQ CX, $1; \
	JLT  sum512; \
	JEQ  odd; \
	ROWS8S(off, bcol); \
	SUBQ $2, CX

// SUMEO stores one tile row: e + o in lane 2c (VMOVSHDUP copies each odd lane
// down, and the add takes e first, as the AVX2 store does), then VPERMPS by
// Z8 (evenlanes32) packs the eight sums into the low YMM half.
#define SUMEO(acc, accy, dst) \
	VMOVSHDUP acc, Z24; \
	VADDPS    Z24, acc, acc; \
	VPERMPS   acc, Z8, acc; \
	VMOVUPS   accy, dst

// evenlanes32 is the VPERMPS selector of lanes 0, 2, …, 14.
DATA evenlanes32<>+0(SB)/4, $0
DATA evenlanes32<>+4(SB)/4, $2
DATA evenlanes32<>+8(SB)/4, $4
DATA evenlanes32<>+12(SB)/4, $6
DATA evenlanes32<>+16(SB)/4, $8
DATA evenlanes32<>+20(SB)/4, $10
DATA evenlanes32<>+24(SB)/4, $12
DATA evenlanes32<>+28(SB)/4, $14
GLOBL evenlanes32<>(SB), RODATA|NOPTR, $32

// func transB32TilesAVX512(dst, a, b *float32, rowTiles, colTiles, k, n int)
//
// transB32TilesAVX2 on ZMM registers: a tile is 8 rows × 8 columns, and Z0..Z7
// hold its rows' sums, column c's even-p sum in lane 2c and its odd-p sum in
// lane 2c+1. Per 16 p, the eight b row segments are transposed as 64-bit
// pairs (TRANSPOSE8), so Z16+q holds b[c, p+2q..p+2q+1] in lanes 2c and 2c+1.
// The k%16 last terms are read through the zeroing mask K1 and added pair by
// pair, an odd last one by ROWS8ODD.
TEXT ·transB32TilesAVX512(SB), NOSPLIT, $0-56
	MOVQ  dst+0(FP), DI
	MOVQ  a+8(FP), SI
	MOVQ  rowTiles+24(FP), R10
	MOVQ  k+40(FP), R8
	MOVQ  n+48(FP), R9
	MOVQ  R8, CX
	ANDQ  $15, CX
	MOVL  $1, AX
	SHLL  CX, AX
	DECL  AX
	KMOVW AX, K1           // the k%16 tail's lanes of a b row segment
	MOVL  $0x5555, AX
	KMOVW AX, K2           // the even lanes
	SHLQ  $2, R8           // bytes per a / b row
	SHLQ  $2, R9           // bytes per dst row
	MOVQ  R8, R15
	ANDQ  $-64, R15        // bytes of a row the 16-term blocks consume
	LEAQ  (R8)(R8*2), R11  // three a / b rows
	LEAQ  (R9)(R9*2), R13  // three dst rows

rowtile512:
	MOVQ b+16(FP), BX
	MOVQ colTiles+32(FP), DX
	LEAQ (SI)(R8*4), R12   // a rows 4..7

tile512:
	VPXORD Z0, Z0, Z0
	VPXORD Z1, Z1, Z1
	VPXORD Z2, Z2, Z2
	VPXORD Z3, Z3, Z3
	VPXORD Z4, Z4, Z4
	VPXORD Z5, Z5, Z5
	VPXORD Z6, Z6, Z6
	VPXORD Z7, Z7, Z7
	LEAQ   (BX)(R8*4), R14 // b rows 4..7
	MOVQ   R15, CX
	TESTQ  CX, CX
	JZ     tail512

block512:
	VMOVUPS (BX), Z8
	VMOVUPS (BX)(R8*1), Z9
	VMOVUPS (BX)(R8*2), Z10
	VMOVUPS (BX)(R11*1), Z11
	VMOVUPS (R14), Z12
	VMOVUPS (R14)(R8*1), Z13
	VMOVUPS (R14)(R8*2), Z14
	VMOVUPS (R14)(R11*1), Z15
	TRANSPOSE8
	ROWS8S(0, Z16)
	ROWS8S(8, Z17)
	ROWS8S(16, Z18)
	ROWS8S(24, Z19)
	ROWS8S(32, Z20)
	ROWS8S(40, Z21)
	ROWS8S(48, Z22)
	ROWS8S(56, Z23)
	ADDQ $64, BX
	ADDQ $64, R14
	ADDQ $64, SI
	ADDQ $64, R12
	SUBQ $64, CX
	JNZ  block512

tail512:
	MOVQ      k+40(FP), CX
	ANDQ      $15, CX        // tail terms left
	JZ        sum512
	VMOVUPS.Z (BX), K1, Z8
	VMOVUPS.Z (BX)(R8*1), K1, Z9
	VMOVUPS.Z (BX)(R8*2), K1, Z10
	VMOVUPS.Z (BX)(R11*1), K1, Z11
	VMOVUPS.Z (R14), K1, Z12
	VMOVUPS.Z (R14)(R8*1), K1, Z13
	VMOVUPS.Z (R14)(R8*2), K1, Z14
	VMOVUPS.Z (R14)(R11*1), K1, Z15
	TRANSPOSE8
	TAILPAIR(0, Z16, odd0)
	TAILPAIR(8, Z17, odd1)
	TAILPAIR(16, Z18, odd2)
	TAILPAIR(24, Z19, odd3)
	TAILPAIR(32, Z20, odd4)
	TAILPAIR(40, Z21, odd5)
	TAILPAIR(48, Z22, odd6)
	TESTQ     CX, CX
	JZ        sum512
	ROWS8ODD(56, Z23)
	JMP       sum512

odd0:
	ROWS8ODD(0, Z16)
	JMP sum512

odd1:
	ROWS8ODD(8, Z17)
	JMP sum512

odd2:
	ROWS8ODD(16, Z18)
	JMP sum512

odd3:
	ROWS8ODD(24, Z19)
	JMP sum512

odd4:
	ROWS8ODD(32, Z20)
	JMP sum512

odd5:
	ROWS8ODD(40, Z21)
	JMP sum512

odd6:
	ROWS8ODD(48, Z22)

sum512:
	VMOVUPS evenlanes32<>(SB), Y8
	LEAQ    (DI)(R9*4), AX
	SUMEO(Z0, Y0, (DI))
	SUMEO(Z1, Y1, (DI)(R9*1))
	SUMEO(Z2, Y2, (DI)(R9*2))
	SUMEO(Z3, Y3, (DI)(R13*1))
	SUMEO(Z4, Y4, (AX))
	SUMEO(Z5, Y5, (AX)(R9*1))
	SUMEO(Z6, Y6, (AX)(R9*2))
	SUMEO(Z7, Y7, (AX)(R13*1))
	ADDQ    $32, DI
	SUBQ    R15, SI            // back to p = 0
	SUBQ    R15, R12
	SUBQ    R15, BX
	LEAQ    (BX)(R8*8), BX     // next eight b rows
	DECQ    DX
	JNZ     tile512
	MOVQ    colTiles+32(FP), DX
	SHLQ    $5, DX
	SUBQ    DX, DI
	LEAQ    (DI)(R9*8), DI     // next eight dst rows
	LEAQ    (SI)(R8*8), SI     // next eight a rows
	DECQ    R10
	JNZ     rowtile512
	VZEROUPPER
	RET

// The elementwise family (elementwise.go). One YMM register is eight f32 or
// four f64 iterations of the Go loop side by side; where an operation has an
// operand order the bits depend on, it is the order of the Go loop as
// compiled: a NaN meeting a NaN keeps the first source's payload, so an add
// takes src before dst, a multiply the vector before the scalar, axpy's add
// the product before dst (TestNaNPayloadsFollowGoOperandOrder), and a maximum
// the candidate first.

// func add32AVX2(dst, src *float32, n int)
TEXT ·add32AVX2(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	SHLQ $2, CX
	XORQ AX, AX

add32:
	VMOVUPS (SI)(AX*1), Y0
	VADDPS  (DI)(AX*1), Y0, Y0
	VMOVUPS Y0, (DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JLT     add32
	VZEROUPPER
	RET

// func add64AVX2(dst, src *float64, n int)
TEXT ·add64AVX2(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	SHLQ $3, CX
	XORQ AX, AX

add64:
	VMOVUPD (SI)(AX*1), Y0
	VADDPD  (DI)(AX*1), Y0, Y0
	VMOVUPD Y0, (DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JLT     add64
	VZEROUPPER
	RET

// func addScalar32AVX2(dst *float32, v float32, n int)
TEXT ·addScalar32AVX2(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	VBROADCASTSS v+8(FP), Y1
	MOVQ n+16(FP), CX
	SHLQ $2, CX
	XORQ AX, AX

adds32:
	VMOVUPS (DI)(AX*1), Y0
	VADDPS  Y1, Y0, Y0
	VMOVUPS Y0, (DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JLT     adds32
	VZEROUPPER
	RET

// func addScalar64AVX2(dst *float64, v float64, n int)
TEXT ·addScalar64AVX2(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	VBROADCASTSD v+8(FP), Y1
	MOVQ n+16(FP), CX
	SHLQ $3, CX
	XORQ AX, AX

adds64:
	VMOVUPD (DI)(AX*1), Y0
	VADDPD  Y1, Y0, Y0
	VMOVUPD Y0, (DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JLT     adds64
	VZEROUPPER
	RET

// func axpy64AVX2(dst, src *float64, a float64, n int)
TEXT ·axpy64AVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	VBROADCASTSD a+16(FP), Y2
	MOVQ n+24(FP), CX
	SHLQ $3, CX
	XORQ AX, AX

axpy64:
	VMOVUPD (SI)(AX*1), Y1
	VMULPD  Y2, Y1, Y1
	VADDPD  (DI)(AX*1), Y1, Y1
	VMOVUPD Y1, (DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JLT     axpy64
	VZEROUPPER
	RET

// func axpyDiff64AVX2(dst, x, y *float64, a float64, n int)
TEXT ·axpyDiff64AVX2(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), DX
	VBROADCASTSD a+24(FP), Y2
	MOVQ n+32(FP), CX
	SHLQ $3, CX
	XORQ AX, AX

axpydiff:
	VMOVUPD (SI)(AX*1), Y1
	VSUBPD  (DX)(AX*1), Y1, Y1
	VMULPD  Y2, Y1, Y1
	VMOVUPD (DI)(AX*1), Y0
	VADDPD  Y1, Y0, Y0
	VMOVUPD Y0, (DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JLT     axpydiff
	VZEROUPPER
	RET

// func relu32AVX2(dst, src *float32, n int)
//
// MAXPS returns its second source unless the first is greater: with +0 second,
// −x, ±0 and every NaN become +0 and a positive x (+Inf included) is kept.
TEXT ·relu32AVX2(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	SHLQ $2, CX
	VXORPS Y1, Y1, Y1
	XORQ AX, AX

relu32:
	VMOVUPS (SI)(AX*1), Y0
	VMAXPS  Y1, Y0, Y0
	VMOVUPS Y0, (DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JLT     relu32
	VZEROUPPER
	RET

// func relu64AVX2(dst, src *float64, n int)
TEXT ·relu64AVX2(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	SHLQ $3, CX
	VXORPD Y1, Y1, Y1
	XORQ AX, AX

relu64:
	VMOVUPD (SI)(AX*1), Y0
	VMAXPD  Y1, Y0, Y0
	VMOVUPD Y0, (DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JLT     relu64
	VZEROUPPER
	RET

// func reluGrad32AVX2(dst, grad, fwd *float32, n int)
//
// Predicate 0x1E is greater-than, ordered, quiet: the Go >.
TEXT ·reluGrad32AVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ grad+8(FP), SI
	MOVQ fwd+16(FP), DX
	MOVQ n+24(FP), CX
	SHLQ $2, CX
	VXORPS Y1, Y1, Y1
	XORQ AX, AX

relugrad32:
	VMOVUPS (DX)(AX*1), Y0
	VCMPPS  $0x1E, Y1, Y0, Y0
	VANDPS  (SI)(AX*1), Y0, Y0
	VMOVUPS Y0, (DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JLT     relugrad32
	VZEROUPPER
	RET

// func reluGrad64AVX2(dst, grad, fwd *float64, n int)
TEXT ·reluGrad64AVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ grad+8(FP), SI
	MOVQ fwd+16(FP), DX
	MOVQ n+24(FP), CX
	SHLQ $3, CX
	VXORPD Y1, Y1, Y1
	XORQ AX, AX

relugrad64:
	VMOVUPD (DX)(AX*1), Y0
	VCMPPD  $0x1E, Y1, Y0, Y0
	VANDPD  (SI)(AX*1), Y0, Y0
	VMOVUPD Y0, (DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JLT     relugrad64
	VZEROUPPER
	RET

// POOLCAND offers one candidate to the running maximum: where cand > best
// (ordered, strict) the value and the index move, else both stay — the Go
// loop's `if c > best`. MAXP* returns its second source when the first is not
// greater or either is a NaN, so best is the second source.
#define POOLCAND(CMP, MAX, BLENDV, cand, idx, best, bestidx, m) \
	CMP    $0x1E, best, cand, m; \
	MAX    best, cand, best; \
	BLENDV m, idx, bestidx, bestidx

// poolidx32 is the order in which VSHUFPS leaves the eight even (or odd)
// elements of two adjacent registers, as offsets from the first; poolidx64 the
// order VUNPCK{L,H}PD leaves four, as 64-bit offsets; poolnarrow64 the VPERMD
// selector that puts the low halves of that order's indices in output order.
DATA poolidx32<>+0(SB)/4, $0
DATA poolidx32<>+4(SB)/4, $2
DATA poolidx32<>+8(SB)/4, $8
DATA poolidx32<>+12(SB)/4, $10
DATA poolidx32<>+16(SB)/4, $4
DATA poolidx32<>+20(SB)/4, $6
DATA poolidx32<>+24(SB)/4, $12
DATA poolidx32<>+28(SB)/4, $14
GLOBL poolidx32<>(SB), RODATA|NOPTR, $32

DATA poolidx64<>+0(SB)/8, $0
DATA poolidx64<>+8(SB)/8, $4
DATA poolidx64<>+16(SB)/8, $2
DATA poolidx64<>+24(SB)/8, $6
GLOBL poolidx64<>(SB), RODATA|NOPTR, $32

DATA poolnarrow64<>+0(SB)/4, $0
DATA poolnarrow64<>+4(SB)/4, $4
DATA poolnarrow64<>+8(SB)/4, $2
DATA poolnarrow64<>+12(SB)/4, $6
DATA poolnarrow64<>+16(SB)/4, $0
DATA poolnarrow64<>+20(SB)/4, $0
DATA poolnarrow64<>+24(SB)/4, $0
DATA poolnarrow64<>+28(SB)/4, $0
GLOBL poolnarrow64<>(SB), RODATA|NOPTR, $32

// poolidx stride-2 offsets in output order, for the half-width steps.
DATA poolhalf32<>+0(SB)/4, $0
DATA poolhalf32<>+4(SB)/4, $2
DATA poolhalf32<>+8(SB)/4, $4
DATA poolhalf32<>+12(SB)/4, $6
GLOBL poolhalf32<>(SB), RODATA|NOPTR, $16

DATA poolhalf64<>+0(SB)/8, $0
DATA poolhalf64<>+8(SB)/8, $2
GLOBL poolhalf64<>(SB), RODATA|NOPTR, $16

// func maxPool32AVX2(out *float32, arg *int32, in *float32, orows, w, cols int)
//
// Eight outputs a step: sixteen floats of the top row and of the bottom row,
// split by VSHUFPS into the four window corners, candidates taken in
// top-left, top-right, bottom-left, bottom-right order, and one VPERMPD that
// undoes the split's lane order; then four outputs in XMM registers, whose
// split is already in order.
TEXT ·maxPool32AVX2(SB), NOSPLIT, $0-48
	MOVQ out+0(FP), DI
	MOVQ arg+8(FP), R8
	MOVQ in+16(FP), SI
	MOVQ orows+24(FP), BX
	MOVQ w+32(FP), R9
	MOVQ cols+40(FP), R10
	VMOVDQU  poolidx32<>(SB), Y12
	VMOVDQU  poolhalf32<>(SB), X13
	VPCMPEQD Y14, Y14, Y14
	VPSRLD   $31, Y14, Y14 // 1 in every lane
	MOVQ     R9, AX
	VMOVD    AX, X15
	VPBROADCASTD X15, Y15  // w in every lane
	XORQ R11, R11          // flat index of the row pair's first element
	LEAQ (R9*4), R12       // bytes per input row
	LEAQ (R9*2), R13       // bytes per output (and index) row

pool32row:
	LEAQ (SI)(R12*1), DX   // the bottom row
	XORQ CX, CX            // output column

pool32y:
	LEAQ 8(CX), AX
	CMPQ AX, R10
	JGT  pool32x
	VMOVUPS (SI)(CX*8), Y0
	VMOVUPS 32(SI)(CX*8), Y1
	VMOVUPS (DX)(CX*8), Y2
	VMOVUPS 32(DX)(CX*8), Y3
	VSHUFPS $0x88, Y1, Y0, Y4 // top-left
	VSHUFPS $0xDD, Y1, Y0, Y5 // top-right
	VSHUFPS $0x88, Y3, Y2, Y6 // bottom-left
	VSHUFPS $0xDD, Y3, Y2, Y7 // bottom-right
	LEAQ    (R11)(CX*2), AX
	VMOVD   AX, X8
	VPBROADCASTD X8, Y8
	VPADDD  Y12, Y8, Y11      // top-left indices: the running argmax
	VPADDD  Y14, Y11, Y8
	POOLCAND(VCMPPS, VMAXPS, VBLENDVPS, Y5, Y8, Y4, Y11, Y10)
	VPADDD  Y15, Y8, Y8
	VPSUBD  Y14, Y8, Y9
	POOLCAND(VCMPPS, VMAXPS, VBLENDVPS, Y6, Y9, Y4, Y11, Y10)
	POOLCAND(VCMPPS, VMAXPS, VBLENDVPS, Y7, Y8, Y4, Y11, Y10)
	VPERMPD $0xD8, Y4, Y4
	VMOVUPS Y4, (DI)(CX*4)
	TESTQ   R8, R8
	JZ      pool32ynext
	VPERMQ  $0xD8, Y11, Y11
	VMOVDQU Y11, (R8)(CX*4)

pool32ynext:
	ADDQ $8, CX
	JMP  pool32y

pool32x:
	CMPQ CX, R10
	JGE  pool32next
	VMOVUPS (SI)(CX*8), X0
	VMOVUPS 16(SI)(CX*8), X1
	VMOVUPS (DX)(CX*8), X2
	VMOVUPS 16(DX)(CX*8), X3
	VSHUFPS $0x88, X1, X0, X4
	VSHUFPS $0xDD, X1, X0, X5
	VSHUFPS $0x88, X3, X2, X6
	VSHUFPS $0xDD, X3, X2, X7
	LEAQ    (R11)(CX*2), AX
	VMOVD   AX, X8
	VPBROADCASTD X8, X8
	VPADDD  X13, X8, X11
	VPADDD  X14, X11, X8
	POOLCAND(VCMPPS, VMAXPS, VBLENDVPS, X5, X8, X4, X11, X10)
	VPADDD  X15, X8, X8
	VPSUBD  X14, X8, X9
	POOLCAND(VCMPPS, VMAXPS, VBLENDVPS, X6, X9, X4, X11, X10)
	POOLCAND(VCMPPS, VMAXPS, VBLENDVPS, X7, X8, X4, X11, X10)
	VMOVUPS X4, (DI)(CX*4)
	TESTQ   R8, R8
	JZ      pool32next
	VMOVDQU X11, (R8)(CX*4)

pool32next:
	LEAQ (SI)(R12*2), SI
	ADDQ R13, DI
	LEAQ (R11)(R9*2), R11
	TESTQ R8, R8
	JZ   pool32noarg
	ADDQ R13, R8

pool32noarg:
	DECQ BX
	JNZ  pool32row
	VZEROUPPER
	RET

// func maxPool64AVX2(out *float64, arg *int32, in *float64, orows, w, cols int)
//
// Four outputs a step from eight doubles of each row, split by VUNPCK{L,H}PD;
// the indices ride in 64-bit lanes beside the values and are narrowed to the
// int32 argmax by the VPERMD that also restores output order. Then two outputs
// in XMM registers.
TEXT ·maxPool64AVX2(SB), NOSPLIT, $0-48
	MOVQ out+0(FP), DI
	MOVQ arg+8(FP), R8
	MOVQ in+16(FP), SI
	MOVQ orows+24(FP), BX
	MOVQ w+32(FP), R9
	MOVQ cols+40(FP), R10
	VMOVDQU  poolidx64<>(SB), Y12
	VMOVDQU  poolhalf64<>(SB), X13
	VPCMPEQQ Y14, Y14, Y14
	VPSRLQ   $63, Y14, Y14 // 1 in every lane
	MOVQ     R9, AX
	VMOVQ    AX, X15
	VPBROADCASTQ X15, Y15  // w in every lane
	XORQ R11, R11          // flat index of the row pair's first element
	LEAQ (R9*8), R12       // bytes per input row
	LEAQ (R9*4), R13       // bytes per output row
	LEAQ (R9*2), R15       // bytes per index row

pool64row:
	LEAQ (SI)(R12*1), DX   // the bottom row
	XORQ CX, CX            // output column

pool64y:
	LEAQ 4(CX), AX
	CMPQ AX, R10
	JGT  pool64x
	LEAQ (CX*2), AX       // input column
	VMOVUPD (SI)(AX*8), Y0
	VMOVUPD 32(SI)(AX*8), Y1
	VMOVUPD (DX)(AX*8), Y2
	VMOVUPD 32(DX)(AX*8), Y3
	VUNPCKLPD Y1, Y0, Y4 // top-left
	VUNPCKHPD Y1, Y0, Y5 // top-right
	VUNPCKLPD Y3, Y2, Y6 // bottom-left
	VUNPCKHPD Y3, Y2, Y7 // bottom-right
	ADDQ    R11, AX
	VMOVQ   AX, X8
	VPBROADCASTQ X8, Y8
	VPADDQ  Y12, Y8, Y11
	VPADDQ  Y14, Y11, Y8
	POOLCAND(VCMPPD, VMAXPD, VBLENDVPD, Y5, Y8, Y4, Y11, Y10)
	VPADDQ  Y15, Y8, Y8
	VPSUBQ  Y14, Y8, Y9
	POOLCAND(VCMPPD, VMAXPD, VBLENDVPD, Y6, Y9, Y4, Y11, Y10)
	POOLCAND(VCMPPD, VMAXPD, VBLENDVPD, Y7, Y8, Y4, Y11, Y10)
	VPERMPD $0xD8, Y4, Y4
	VMOVUPD Y4, (DI)(CX*8)
	TESTQ   R8, R8
	JZ      pool64ynext
	VMOVDQU poolnarrow64<>(SB), Y9
	VPERMD  Y11, Y9, Y11
	VMOVDQU X11, (R8)(CX*4)

pool64ynext:
	ADDQ $4, CX
	JMP  pool64y

pool64x:
	CMPQ CX, R10
	JGE  pool64next
	LEAQ (CX*2), AX
	VMOVUPD (SI)(AX*8), X0
	VMOVUPD 16(SI)(AX*8), X1
	VMOVUPD (DX)(AX*8), X2
	VMOVUPD 16(DX)(AX*8), X3
	VUNPCKLPD X1, X0, X4
	VUNPCKHPD X1, X0, X5
	VUNPCKLPD X3, X2, X6
	VUNPCKHPD X3, X2, X7
	ADDQ    R11, AX
	VMOVQ   AX, X8
	VPBROADCASTQ X8, X8
	VPADDQ  X13, X8, X11
	VPADDQ  X14, X11, X8
	POOLCAND(VCMPPD, VMAXPD, VBLENDVPD, X5, X8, X4, X11, X10)
	VPADDQ  X15, X8, X8
	VPSUBQ  X14, X8, X9
	POOLCAND(VCMPPD, VMAXPD, VBLENDVPD, X6, X9, X4, X11, X10)
	POOLCAND(VCMPPD, VMAXPD, VBLENDVPD, X7, X8, X4, X11, X10)
	VMOVUPD X4, (DI)(CX*8)
	TESTQ   R8, R8
	JZ      pool64next
	VPSHUFD $0xE8, X11, X11 // the two low halves, adjacent
	VMOVQ   X11, (R8)(CX*4)

pool64next:
	LEAQ (SI)(R12*2), SI
	ADDQ R13, DI
	LEAQ (R11)(R9*2), R11
	TESTQ R8, R8
	JZ   pool64noarg
	ADDQ R15, R8

pool64noarg:
	DECQ BX
	JNZ  pool64row
	VZEROUPPER
	RET

// lanemask holds eight set dwords and then eight clear ones: the VMASKMOVPS
// mask of a row's r last lanes starts 4·r bytes, the VMASKMOVPD mask 8·r
// bytes, before the middle.
DATA lanemask<>+0(SB)/8, $0xffffffffffffffff
DATA lanemask<>+8(SB)/8, $0xffffffffffffffff
DATA lanemask<>+16(SB)/8, $0xffffffffffffffff
DATA lanemask<>+24(SB)/8, $0xffffffffffffffff
DATA lanemask<>+32(SB)/8, $0
DATA lanemask<>+40(SB)/8, $0
DATA lanemask<>+48(SB)/8, $0
DATA lanemask<>+56(SB)/8, $0
GLOBL lanemask<>(SB), RODATA|NOPTR, $64

// func addRows32AVX2(dst, src *float32, rows, n, dstStride, srcStride int)
TEXT ·addRows32AVX2(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ rows+16(FP), BX
	MOVQ n+24(FP), CX
	MOVQ dstStride+32(FP), R8
	MOVQ srcStride+40(FP), R9
	SHLQ $2, R8
	SHLQ $2, R9
	MOVQ CX, DX
	ANDQ $7, DX           // lanes of the masked step; none when zero
	MOVQ DX, R10
	NEGQ R10
	LEAQ lanemask<>(SB), AX
	VMOVDQU 32(AX)(R10*4), Y2
	ANDQ $-8, CX
	SHLQ $2, CX           // bytes of a row the whole registers cover

addrows32row:
	XORQ AX, AX

addrows32full:
	CMPQ AX, CX
	JGE  addrows32tail
	VMOVUPS (SI)(AX*1), Y0
	VADDPS  (DI)(AX*1), Y0, Y0
	VMOVUPS Y0, (DI)(AX*1)
	ADDQ    $32, AX
	JMP     addrows32full

addrows32tail:
	TESTQ DX, DX
	JZ    addrows32next
	VMASKMOVPS (DI)(AX*1), Y2, Y0
	VMASKMOVPS (SI)(AX*1), Y2, Y1
	VADDPS     Y0, Y1, Y0
	VMASKMOVPS Y0, Y2, (DI)(AX*1)

addrows32next:
	ADDQ R8, DI
	ADDQ R9, SI
	DECQ BX
	JNZ  addrows32row
	VZEROUPPER
	RET

// func addRows64AVX2(dst, src *float64, rows, n, dstStride, srcStride int)
TEXT ·addRows64AVX2(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ rows+16(FP), BX
	MOVQ n+24(FP), CX
	MOVQ dstStride+32(FP), R8
	MOVQ srcStride+40(FP), R9
	SHLQ $3, R8
	SHLQ $3, R9
	MOVQ CX, DX
	ANDQ $3, DX           // lanes of the masked step; none when zero
	MOVQ DX, R10
	NEGQ R10
	LEAQ lanemask<>(SB), AX
	VMOVDQU 32(AX)(R10*8), Y2
	ANDQ $-4, CX
	SHLQ $3, CX           // bytes of a row the whole registers cover

addrows64row:
	XORQ AX, AX

addrows64full:
	CMPQ AX, CX
	JGE  addrows64tail
	VMOVUPD (SI)(AX*1), Y0
	VADDPD  (DI)(AX*1), Y0, Y0
	VMOVUPD Y0, (DI)(AX*1)
	ADDQ    $32, AX
	JMP     addrows64full

addrows64tail:
	TESTQ DX, DX
	JZ    addrows64next
	VMASKMOVPD (DI)(AX*1), Y2, Y0
	VMASKMOVPD (SI)(AX*1), Y2, Y1
	VADDPD     Y0, Y1, Y0
	VMASKMOVPD Y0, Y2, (DI)(AX*1)

addrows64next:
	ADDQ R8, DI
	ADDQ R9, SI
	DECQ BX
	JNZ  addrows64row
	VZEROUPPER
	RET

// func masterUpdateAVX2(m *float64, p, grad *float32, lr float64, n int) float64
//
// Four gradients a step are widened, squared, scaled and applied as vectors;
// the squares then join the norm one lane at a time, lowest first, so the sum
// is the single ascending chain of the Go loop.
TEXT ·masterUpdateAVX2(SB), NOSPLIT, $0-48
	MOVQ m+0(FP), DI
	MOVQ p+8(FP), R8
	MOVQ grad+16(FP), SI
	VBROADCASTSD lr+24(FP), Y7
	MOVQ n+32(FP), CX
	VXORPD X5, X5, X5
	XORQ AX, AX

master:
	VCVTPS2PD  (SI)(AX*4), Y0
	VMULPD     Y0, Y0, Y1   // f·f
	VMULPD     Y7, Y0, Y2   // f·lr
	VMOVUPD    (DI)(AX*8), Y3
	VSUBPD     Y2, Y3, Y3
	VMOVUPD    Y3, (DI)(AX*8)
	VCVTPD2PSY Y3, X4
	VMOVUPS    X4, (R8)(AX*4)
	VADDSD     X1, X5, X5
	VPERMILPD  $1, X1, X6
	VADDSD     X6, X5, X5
	VEXTRACTF128 $1, Y1, X6
	VADDSD     X6, X5, X5
	VPERMILPD  $1, X6, X6
	VADDSD     X6, X5, X5
	ADDQ       $4, AX
	CMPQ       AX, CX
	JLT        master
	VMOVSD X5, ret+40(FP)
	VZEROUPPER
	RET

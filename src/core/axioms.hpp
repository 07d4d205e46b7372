// The six axioms of the paper's game-theoretical mechanism (Figure 1) and
// how this library realises each of them.  This header is the map between
// the paper's theory (Section 3) and the code (Section 4 / Figure 2).
//
//  Axiom 1 (Ingredients)   — a mechanism has (a) an algorithmic output
//      specification and (b) agent utility functions.
//      Code: core::run_agt_ram produces core::MechanismResult (the output x
//      and the payments p, one RoundRecord per allocation); utilities
//      u_i = v_i(t_i, x) - p_i follow from them: core::agent_outcomes folds
//      the rounds per agent (AgentOutcome::utility()).
//
//  Axiom 2 (Agent disposition) — each agent holds private "true data";
//      everything else is public.  The paper argues DRP[pi] is the only
//      natural variant: the private data is the cost-of-replication
//      valuation CoR_ik, while topology and capacities are public.
//      Code: core::Agent computes t_ik = drp::CostModel::agent_benefit
//      from its local demand; the mechanism never reads demand directly,
//      only the reports (enforced by the Agent interface).
//
//  Axiom 3 (Truthful)      — truth-telling must be a dominant strategy
//      (Lemma 1 / Theorem 5).  Code: with PaymentRule::SecondPrice the
//      winner's payment is independent of its own report, which makes
//      misreporting weakly dominated; core::audit_one_shot_truthfulness
//      checks the one-shot dominance exactly, core::RoundAuditor checks it
//      round by round for the misreporting agents of a strategic run, and
//      core::audit_truthfulness / strategic_audit measure full-game
//      margins; the strategic ReportStrategy hooks let benches demonstrate
//      what breaks under first-price payments.
//
//  Axiom 4 (Utilitarian)   — the objective is the sum of agent valuations,
//      g(x, t) = sum_i v_i(t_i, x), which is exactly the OTC objective of
//      Equation 4.  Code: each round allocates the argmax of the reported
//      valuations (core::SealedBids::best(), ties to the lowest id);
//      core::RoundAuditor checks each winner and its payment per round.
//
//  Axiom 5 (Motivation)    — payments reward hosting: AGT-RAM pays the
//      *overall second-best* reported valuation (a Vickrey/second-price
//      rule), making over-, under- and random projection all unprofitable.
//      Code: core::compute_payment.
//
//  Axiom 6 (Algorithmic output) — the iterative allocation loop of
//      Figure 2; one replica per round, the centre only takes the binary
//      replicate / don't-replicate decision.  Code: core::run_agt_ram.
#pragma once
